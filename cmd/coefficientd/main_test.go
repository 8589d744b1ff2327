package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// bootDaemon runs the daemon on an ephemeral port and returns its base
// URL, the cancel that triggers the drain path, and the channel carrying
// run's final error.
func bootDaemon(t *testing.T, extraArgs ...string) (string, context.CancelFunc, <-chan error, *strings.Builder) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	var log strings.Builder
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain", "30s"}, extraArgs...)
	go func() {
		errc <- run(ctx, args, &log, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, errc, &log
	case err := <-errc:
		cancel()
		t.Fatalf("daemon failed to boot: %v", err)
		return "", nil, nil, nil
	}
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, data)
		}
	}
	return resp.StatusCode
}

// TestDaemonSmokeJobAndCleanDrain is the end-to-end lifecycle: boot,
// serve a quick job over HTTP, then cancel the run context (the SIGTERM
// path) and require a clean drain with the result persisted under the
// state directory.
func TestDaemonSmokeJobAndCleanDrain(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	base, cancel, errc, log := bootDaemon(t, "-state-dir", stateDir)
	defer cancel()

	if code := getJSON(t, base+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"seed": 11, "quick": true, "parallel": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted struct{ ID, Hash string }
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}

	var st struct{ State string }
	for i := 0; i < 30000 && st.State != "done"; i++ {
		if code := getJSON(t, base+"/jobs/"+accepted.ID, &st); code != http.StatusOK {
			t.Fatalf("job status: %d", code)
		}
		if st.State != "done" {
			time.Sleep(time.Millisecond)
		}
	}
	if st.State != "done" {
		t.Fatalf("smoke job never completed; state %q", st.State)
	}
	var health struct {
		Done     int  `json:"done"`
		Draining bool `json:"draining"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK ||
		health.Done != 1 || health.Draining {
		t.Fatalf("healthz: code %d doc %+v", code, health)
	}
	var served struct{ Table string }
	if code := getJSON(t, base+"/results/"+accepted.Hash, &served); code != http.StatusOK {
		t.Fatalf("result fetch: %d", code)
	}

	// The SIGTERM path: cancel the run context, expect a clean exit.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v\nlog:\n%s", err, log.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("daemon did not drain within a minute")
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Errorf("log missing clean-drain line:\n%s", log.String())
	}
	disk, err := journal.OpenResultStore(journal.OS(), filepath.Join(stateDir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	payloads, corrupt, err := disk.Load()
	if err != nil || corrupt != 0 {
		t.Fatalf("load persisted results: %d corrupt, err %v", corrupt, err)
	}
	var persisted struct{ Table string }
	if err := json.Unmarshal(payloads[accepted.Hash], &persisted); err != nil {
		t.Fatalf("persisted result %s: %v", accepted.Hash, err)
	}
	if persisted.Table != served.Table || !strings.Contains(persisted.Table, "Graceful degradation") {
		t.Errorf("persisted table differs from the served one:\n%s\nvs\n%s", persisted.Table, served.Table)
	}
}

// TestDaemonRejectsBadFlags runs each bad flag on a context that is
// already cancelled: a daemon that boots anyway drains at once, so only
// an error naming the flag passes.  The daemon runs each job once, so
// the retry flags it once had are refused even at their old defaults.
func TestDaemonRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ flag, value string }{
		{"no-such-flag", ""},
		{"retries", "3"},
		{"quarantine-after", "3"},
		{"workers", "-3"},
		{"queue", "0"},
		{"drain", "-5s"},
		{"retry-after", "0s"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			args := []string{"-addr", "127.0.0.1:0", "-" + tc.flag}
			if tc.value != "" {
				args = append(args, tc.value)
			}
			err := run(ctx, args, io.Discard, nil)
			if err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Fatalf("run(%q) = %v, want an error naming -%s", args, err, tc.flag)
			}
		})
	}
}

func TestDaemonListenErrorSurfaces(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.0.0.1:0"}, io.Discard, nil)
	if err == nil {
		t.Fatal("bad listen address accepted")
	}
}
