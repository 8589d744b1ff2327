// Package runner executes experiment sweeps on a deterministic worker
// pool.  The paper's evaluation is a cross product — schedulers ×
// scenarios × slot counts × message counts × seeds — whose cells are
// independent simulations; this package runs them on up to
// min(GOMAXPROCS, requested) goroutines while keeping the output
// byte-identical to a serial run.
//
// # Determinism contract
//
// A sweep stays deterministic under parallelism iff
//
//  1. every cell is a pure function of its own inputs: the cell closure
//     builds its own scheduler, injectors and setup, and shares only
//     immutable data (message sets, scenario scripts) with other cells;
//  2. any randomness a cell consumes is seeded from the cell's
//     coordinates (see CellSeed), never from a generator shared across
//     cells, so the draw streams do not depend on execution order;
//  3. results are reassembled in canonical cell order — the order a
//     serial `for` nest would have produced them — not completion order.
//
// MapCtx, FlatMapCtx and MapBatchCtx guarantee (3); the experiment
// harnesses guarantee (1) and (2).  Under this contract `-parallel 1`
// and `-parallel N` produce byte-identical tables, and the first error
// reported is the error of the lowest-indexed failing cell, exactly as a
// serial loop that stops at the first failure would report it.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested parallelism degree to the worker count
// actually used: min(GOMAXPROCS, requested).  Zero or negative requests
// select GOMAXPROCS (the CLI's `-parallel 0` means "use all cores").
func Workers(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > max {
		return max
	}
	return requested
}

// CellSeed derives a deterministic per-cell seed from a base seed and
// the cell's sweep coordinates.  Two cells with different coordinates
// get uncorrelated streams (splitmix64 finalizer per coordinate), and
// the derivation depends only on (base, coords), never on worker or
// completion order — requirement (2) of the determinism contract.
func CellSeed(base uint64, coords ...uint64) uint64 {
	s := base
	for _, c := range coords {
		s = mix64(s ^ mix64(c+0x9E3779B97F4A7C15))
	}
	return s
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// MapCtx runs fn(0..n-1) on Workers(parallel) goroutines and returns
// the results in index order.  If any cells fail, the error of the
// lowest-indexed failing cell is returned (the same error a serial loop
// would have stopped at) and the results slice is nil.  parallel == 1 or
// n <= 1 runs inline with no goroutines.  A panicking cell fails with a
// "cell N panicked" error carrying the panic value and stack.
//
// Every cell checks ctx before it starts, so a deadline or a cancel
// stops the sweep at the next cell boundary (a cell already inside fn
// runs to completion — the engine's cycle loop is not context-aware, by
// design: checking a context per cycle would put an atomic load on the
// zero-alloc hot path).  A cancelled cell fails with a "cell N
// cancelled" error wrapping ctx.Err(), and the usual lowest-index error
// policy applies, so errors.Is(err, context.DeadlineExceeded) works on
// the result.  A nil ctx means no cancellation.
//
// MapCtx is MapBatchCtx over batches of one cell with no worker state.
func MapCtx[T any](ctx context.Context, parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1
	}
	return MapBatchCtx(ctx, parallel, sizes,
		func() (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, b, _ int) (T, error) { return fn(b) })
}

// MapBatchCtx runs cells grouped into contiguous batches on a worker
// pool with per-worker reusable state.  Batch b covers the global cells
// [starts[b], starts[b]+sizes[b]) where starts is the prefix sum of
// sizes; workers claim whole batches and run a batch's cells in
// ascending order on a private state S built lazily by newState — the
// state persists across every batch the worker claims, which is what
// lets a batched replica sweep reuse one compiled simulation state for
// hundreds of seeds instead of rebuilding it per cell.
//
// The determinism contract extends MapCtx's: fn must produce a result that
// is a pure function of (batch, i) alone — any state carried between
// cells must be rewound by fn (e.g. a seeded Reset) so that which worker
// ran the previous cell on the state cannot leak into this cell's
// output.  Results are reassembled in global cell order, and the error
// of the lowest-indexed failing cell wins, as in MapCtx.  A failing cell
// abandons the remainder of its batch — the shared state may be
// inconsistent after a panic — which preserves the lowest-index policy
// because cells within a batch run in ascending order.  A newState
// failure is attributed to the first cell of the batch the worker was
// about to run.
func MapBatchCtx[S, T any](ctx context.Context, parallel int, sizes []int,
	newState func() (S, error), fn func(state S, batch, i int) (T, error)) ([]T, error) {
	nb := len(sizes)
	starts := make([]int, nb)
	total := 0
	for b, sz := range sizes {
		if sz < 0 {
			return nil, fmt.Errorf("runner: batch %d has negative size %d", b, sz)
		}
		starts[b] = total
		total += sz
	}
	if total <= 0 {
		return nil, nil
	}
	out := make([]T, total)
	workers := Workers(parallel)
	if workers > nb {
		workers = nb
	}
	// runBatch runs one batch's cells in ascending order, returning the
	// global index and error of the first failing cell.
	runBatch := func(state S, b int) (int, error) {
		for i := 0; i < sizes[b]; i++ {
			cell := starts[b] + i
			v, err := runBatchCell(ctx, state, b, i, cell, fn)
			if err != nil {
				return cell, err
			}
			out[cell] = v
		}
		return 0, nil
	}
	if workers <= 1 {
		state, err := newState()
		if err != nil {
			return nil, fmt.Errorf("runner: batch state: %w", err)
		}
		for b := 0; b < nb; b++ {
			if _, err := runBatch(state, b); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = total // lowest failing cell index seen so far
		firstErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state S
			created := false
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				if !created {
					s, err := newState()
					if err != nil {
						fail(starts[b], fmt.Errorf("runner: batch state: %w", err))
						return
					}
					state = s
					created = true
				}
				if cell, err := runBatch(state, b); err != nil {
					fail(cell, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// runBatchCell invokes one cell, checking ctx first and converting a
// panic into an error so one bad cell fails its sweep instead of
// crashing every worker's sibling cells.  The recovered error carries
// the panic value and the panicking goroutine's stack trace: without the
// stack, a panic deep inside a 10-second sweep surfaces as an
// unlocatable one-liner.  Errors name the cell's global index.
func runBatchCell[S, T any](ctx context.Context, state S, b, i, cell int,
	fn func(state S, batch, i int) (T, error)) (v T, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return v, fmt.Errorf("runner: cell %d cancelled: %w", cell, cerr)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: cell %d panicked: %v\n%s", cell, r, debug.Stack())
		}
	}()
	return fn(state, b, i)
}

// FlatMapCtx runs fn over n cells like MapCtx and concatenates the
// per-cell row slices in cell order — the shape every experiment harness
// needs: one cell may contribute several table rows, and the
// concatenation must match the serial nesting exactly.
func FlatMapCtx[T any](ctx context.Context, parallel, n int, fn func(i int) ([]T, error)) ([]T, error) {
	chunks, err := MapCtx(ctx, parallel, n, fn)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	out := make([]T, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}
