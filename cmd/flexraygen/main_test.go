package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, rerr := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if rerr != nil {
				break
			}
		}
		outCh <- string(buf)
	}()
	ferr := fn()
	if err := w.Close(); err != nil {
		t.Fatalf("close pipe: %v", err)
	}
	return <-outCh, ferr
}

func TestGenerateBBWTable(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-workload", "bbw"}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "BBW-01") || !strings.Contains(out, "20 messages") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestGenerateSyntheticJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-workload", "synthetic", "-messages", "7", "-format", "json"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Messages []struct {
			ID int `json:"id"`
		} `json:"messages"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(decoded.Messages) != 7 {
		t.Errorf("generated %d messages, want 7", len(decoded.Messages))
	}
}

func TestGenerateSAE(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-workload", "sae", "-count", "3", "-first-id", "121"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "121") || !strings.Contains(out, "aperiodic") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRejectsBadWorkloadAndFormat(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, "unknown workload"},
		{[]string{"-format", "yaml"}, "unknown format"},
		{[]string{"-workload", "sae", "-count", "0"}, "-count 0"},
		{[]string{"-workload", "sae", "-count", "-5"}, "-count -5"},
		{[]string{"-workload", "sae", "-first-id", "-7"}, "-first-id -7"},
	} {
		_, err := capture(t, func() error { return run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
