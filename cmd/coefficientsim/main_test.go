package main

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()

	errCh := make(chan error, 1)
	outCh := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		outCh <- string(buf)
	}()
	errCh <- fn()
	if err := w.Close(); err != nil {
		t.Fatalf("close pipe: %v", err)
	}
	return <-outCh, <-errCh
}

func TestRunFig5Quick(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-experiment", "fig5", "-quick", "-seed", "1"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Figure 5", "CoEfficient", "FSPEC", "miss ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-experiment", "fig3", "-quick", "-format", "csv"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "minislots,scheduler,efficiency") {
		t.Errorf("csv header missing:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "fig9", "-quick"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"-format", "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run(context.Background(), []string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	for _, args := range [][]string{
		{"-experiment", "timing", "-quick", "-drift", "0"},
		{"-experiment", "timing", "-quick", "-drift", "-50"},
		{"-experiment", "timing", "-quick", "-parallel", "1", "-drift", "NaN"},
		{"-experiment", "timing", "-quick", "-parallel", "1", "-drift", "+Inf"},
		{"-experiment", "fig5", "-quick", "-replicas", "-5"},
		{"-experiment", "fig3", "-quick", "-parallel", "-3"},
		{"-experiment", "fig3", "-quick", "-guardians", "bogus"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// A bad name anywhere in the list fails before the first experiment
	// runs, so no partial output file is written.
	path := filepath.Join(t.TempDir(), "out.txt")
	for _, exp := range []string{"fig3,bogus", "fig3,all"} {
		if err := run(context.Background(), []string{"-experiment", exp, "-quick", "-output", path}); err == nil {
			t.Errorf("-experiment %s accepted", exp)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("-experiment %s left an output file behind (stat: %v)", exp, err)
		}
	}
}

// TestRunParallelIdentity pins the CLI's promise that every rendered
// table, including synthesis and WCRT, is the same bytes at any
// -parallel degree.
func TestRunParallelIdentity(t *testing.T) {
	render := func(parallel string) string {
		out, err := capture(t, func() error {
			return run(context.Background(), []string{"-experiment", "all", "-quick", "-parallel", parallel})
		})
		if err != nil {
			t.Fatalf("run -parallel %s: %v", parallel, err)
		}
		return out
	}
	if serial, par := render("1"), render("8"); serial != par {
		t.Errorf("-parallel 8 output differs from -parallel 1:\n--- 1 ---\n%s\n--- 8 ---\n%s", serial, par)
	}
}

func TestRunJSONToFile(t *testing.T) {
	path := t.TempDir() + "/out.json"
	if err := run(context.Background(), []string{"-experiment", "fig3", "-quick", "-format", "json", "-output", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	if !strings.Contains(string(data), `"title"`) || !strings.Contains(string(data), "CoEfficient") {
		t.Errorf("JSON output missing fields:\n%s", data)
	}
}

func TestRunWritesSVG(t *testing.T) {
	dir := t.TempDir()
	_, err := capture(t, func() error {
		return run(context.Background(), []string{"-experiment", "fig3,fig5", "-quick", "-svg", dir})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"fig3.svg", "fig5.svg"} {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
			t.Errorf("%s is not a chart", name)
		}
	}
}

func TestRunSynthesisAndWCRT(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-experiment", "synthesis,wcrt,ablation", "-quick"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"synthesis", "worst-case response times", "ablations"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig1Fig4aQuick(t *testing.T) {
	out, err := capture(t, func() error {
		return run(context.Background(), []string{"-experiment", "fig4a", "-quick"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "Figure 4(a)") {
		t.Errorf("output missing fig4a table")
	}
}

// TestRunCancelledContextStillClosesOutput pins the SIGINT contract:
// a cancelled context aborts the sweep through the normal error path,
// so the -output file is still created, flushed and closed by the
// writeFile helper rather than abandoned mid-write.
func TestRunCancelledContextStillClosesOutput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	path := t.TempDir() + "/partial.json"
	err := run(ctx, []string{"-experiment", "fig3", "-quick", "-format", "json", "-output", path})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	// The file must exist and be a closed, readable artifact (possibly
	// empty: the first experiment was cancelled before any row).
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("output file not created/closed: %v", serr)
	}
}
