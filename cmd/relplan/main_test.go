package main

import (
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

func TestPlanBBW(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-workload", "bbw", "-ber", "1e-7", "-goal", "0.999"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"differentiated plan", "BBW-01", "achieved success probability"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPlanUniformFlag(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-workload", "acc", "-ber", "1e-6", "-goal", "0.999", "-uniform"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "uniform plan") {
		t.Errorf("output missing uniform marker:\n%s", out)
	}
}

func TestPlanSILDefault(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-workload", "bbw", "-ber", "1e-9", "-sil", "2"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "goal=0.999999999") {
		t.Errorf("SIL-derived goal missing:\n%s", out)
	}
}

func TestPlanBadFlags(t *testing.T) {
	if err := run([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-unit", "bananas"}); err == nil {
		t.Error("bad unit accepted")
	}
	if err := run([]string{"-workload", "bbw", "-sil", "9"}); err == nil {
		t.Error("bad SIL accepted")
	}
	if err := run([]string{"-workload", "bbw", "-max-retx", "-3"}); err == nil || !strings.Contains(err.Error(), "-max-retx") {
		t.Errorf("negative -max-retx: err = %v, want an error naming -max-retx", err)
	}
}
