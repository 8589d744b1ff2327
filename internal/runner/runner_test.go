package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/flexray-go/coefficient/internal/fault"
)

func TestWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != max {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, max)
	}
	if got := Workers(-3); got != max {
		t.Errorf("Workers(-3) = %d, want %d", got, max)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(max + 100); got != max {
		t.Errorf("Workers(max+100) = %d, want %d", got, max)
	}
}

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	a := CellSeed(1, 2, 3)
	if a != CellSeed(1, 2, 3) {
		t.Fatal("CellSeed not deterministic")
	}
	seen := map[uint64]bool{a: true}
	// Nearby coordinates must not collide (the streams feed RNGs).
	for i := uint64(0); i < 50; i++ {
		for j := uint64(0); j < 50; j++ {
			if i == 2 && j == 3 {
				continue
			}
			s := CellSeed(1, i, j)
			if seen[s] {
				t.Fatalf("CellSeed collision at (%d,%d)", i, j)
			}
			seen[s] = true
		}
	}
	// Coordinate order matters.
	if CellSeed(1, 2, 3) == CellSeed(1, 3, 2) {
		t.Error("CellSeed ignores coordinate order")
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		got, err := MapCtx(nil, par, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel %d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := MapCtx(nil, 8, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("MapCtx(0 cells) = %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	errCell := errors.New("cell failed")
	for _, par := range []int{1, 8} {
		_, err := MapCtx(nil, par, 64, func(i int) (int, error) {
			if i == 7 || i == 40 {
				return 0, fmt.Errorf("%w: %d", errCell, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, errCell) {
			t.Fatalf("parallel %d: err = %v, want cell error", par, err)
		}
		if want := "cell failed: 7"; err.Error() != want {
			t.Errorf("parallel %d: err = %q, want %q (lowest failing cell)", par, err, want)
		}
	}
}

func TestMapRecoversPanics(t *testing.T) {
	_, err := MapCtx(nil, 8, 16, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panicking cell returned no error")
	}
}

func TestFlatMapConcatenatesInCellOrder(t *testing.T) {
	serial, err := FlatMapCtx(nil, 1, 30, cellRows)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FlatMapCtx(nil, 8, 30, cellRows)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial != parallel:\n%v\n%v", serial, parallel)
	}
}

// cellRows emits a variable-length, cell-dependent row slice.
func cellRows(i int) ([]string, error) {
	rows := make([]string, i%3)
	for j := range rows {
		rows[j] = fmt.Sprintf("cell-%d-row-%d", i, j)
	}
	return rows, nil
}

// TestMapHammer drives many concurrent cells that each burn their own
// seeded RNG stream; run under -race this is the shared-state audit for
// the pool itself.
func TestMapHammer(t *testing.T) {
	// Force real worker goroutines even on single-core machines, where
	// Workers() would otherwise clamp the pool to an inline loop.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const cells = 256
	var ran atomic.Int64
	sum := func(i int) (uint64, error) {
		rng := fault.NewRNG(CellSeed(42, uint64(i)))
		var s uint64
		for k := 0; k < 1000; k++ {
			s += rng.Uint64()
		}
		ran.Add(1)
		return s, nil
	}
	want, err := MapCtx(nil, 1, cells, sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 16} {
		ran.Store(0)
		got, err := MapCtx(nil, par, cells, sum)
		if err != nil {
			t.Fatalf("parallel %d: %v", par, err)
		}
		if n := ran.Load(); n != cells {
			t.Fatalf("parallel %d: ran %d cells, want %d", par, n, cells)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallel %d: RNG streams depend on execution order", par)
		}
	}
}

// TestPanicErrorCarriesStack pins the panic-surfacing contract: the
// recovered error must carry both the panic value and the panicking
// goroutine's stack trace, so a crash deep inside a long sweep is
// locatable from the error alone.
func TestPanicErrorCarriesStack(t *testing.T) {
	for _, par := range []int{1, 8} {
		_, err := MapCtx(nil, par, 4, func(i int) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("parallel %d: panicking cell returned no error", par)
		}
		msg := err.Error()
		if !strings.Contains(msg, "cell 2 panicked: kaboom") {
			t.Errorf("parallel %d: error %q missing panic value", par, msg)
		}
		// The stack must name this test function's frame — the panic
		// site — not just the recover machinery.
		if !strings.Contains(msg, "TestPanicErrorCarriesStack") {
			t.Errorf("parallel %d: error missing panic stack trace:\n%s", par, msg)
		}
	}
}

// TestMapCtxCancelsBetweenCells pins the cancellation contract: a done
// context fails the sweep with an error wrapping ctx.Err(), at every
// parallelism degree, and a nil context means no cancellation.
func TestMapCtxCancelsBetweenCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 8} {
		var ran atomic.Int64
		_, err := MapCtx(ctx, par, 64, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if err == nil {
			t.Fatalf("parallel %d: cancelled sweep reported success", par)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parallel %d: err = %v, want context.Canceled in chain", par, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("parallel %d: %d cells ran after cancellation", par, n)
		}
	}
	if _, err := MapCtx(nil, 1, 4, func(i int) (int, error) { return i, nil }); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

// TestMapCtxDeadlineMidSweep cancels partway: cells that started before
// the cancel complete normally, later ones fail, and the reported error
// is the cancellation (deadline) error.
func TestMapCtxDeadlineMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := MapCtx(ctx, 1, 10, func(i int) (int, error) {
		if i == 3 {
			cancel()
		}
		ran.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 4 {
		t.Errorf("ran %d cells, want 4 (cells 0-3 then stop)", n)
	}
}

// TestFlatMapCtxPropagates covers the FlatMap variant of the same
// contract.
func TestFlatMapCtxPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FlatMapCtx(ctx, 4, 8, cellRows); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rows, err := FlatMapCtx(nil, 4, 8, cellRows)
	if err != nil || len(rows) == 0 {
		t.Fatalf("nil ctx FlatMapCtx: rows %d, err %v", len(rows), err)
	}
}
