package main

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flexray-go/coefficient/internal/serve/journal"
)

// fsProbe is the traced daemon's view of its durability layer: a
// journal.FS passed as serve.Config.FS that times journal fsyncs and
// result persistence, plus the serve.Hooks.BeforeAttempt hook that
// marks the start of every execution attempt.  It records only between
// start and stop, so set-up and untraced windows pass straight through.
type fsProbe struct {
	inner   journal.FS
	results string
	on      atomic.Bool

	mu sync.Mutex
	// Per result hash, in time order: attempt starts, result-file
	// creates and completed persists (rename + directory sync).
	attempts, creates, persists map[string][]int64
	// renamed holds renames of result files not yet covered by a
	// directory sync.
	renamed                     map[string]int64
	writes, bytes               int64
	journalSyncMs, resultSyncMs []float64
}

func newFSProbe(inner journal.FS, stateDir string) *fsProbe {
	return &fsProbe{inner: inner, results: filepath.Join(stateDir, "results")}
}

// start clears the records and starts recording.
func (p *fsProbe) start() {
	p.mu.Lock()
	p.attempts = make(map[string][]int64)
	p.creates = make(map[string][]int64)
	p.persists = make(map[string][]int64)
	p.renamed = make(map[string]int64)
	p.writes, p.bytes = 0, 0
	p.journalSyncMs, p.resultSyncMs = nil, nil
	p.mu.Unlock()
	p.on.Store(true)
}

func (p *fsProbe) stop() { p.on.Store(false) }

// resultHash returns the result hash a path in the result store names.
func (p *fsProbe) resultHash(path string) (string, bool) {
	if filepath.Dir(path) != p.results {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".tmp"), ".json"), true
}

func (p *fsProbe) mark(into map[string][]int64, hash string, at int64) {
	p.mu.Lock()
	into[hash] = append(into[hash], at)
	p.mu.Unlock()
}

// beforeAttempt is the serve.Hooks.BeforeAttempt hook.
func (p *fsProbe) beforeAttempt(_ context.Context, hash string, _ int) error {
	if p.on.Load() {
		p.mark(p.attempts, hash, nowNs())
	}
	return nil
}

func (p *fsProbe) MkdirAll(dir string) error            { return p.inner.MkdirAll(dir) }
func (p *fsProbe) ReadFile(path string) ([]byte, error) { return p.inner.ReadFile(path) }
func (p *fsProbe) ReadDir(dir string) ([]string, error) { return p.inner.ReadDir(dir) }
func (p *fsProbe) Remove(path string) error             { return p.inner.Remove(path) }

func (p *fsProbe) OpenAppend(path string) (journal.File, error) {
	f, err := p.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &probedFile{File: f, p: p, isJournal: true}, nil
}

func (p *fsProbe) Create(path string) (journal.File, error) {
	at := nowNs()
	f, err := p.inner.Create(path)
	if err != nil {
		return nil, err
	}
	hash, isResult := p.resultHash(path)
	if isResult && p.on.Load() {
		p.mark(p.creates, hash, at)
	}
	return &probedFile{File: f, p: p, isJournal: !isResult}, nil
}

func (p *fsProbe) Rename(oldpath, newpath string) error {
	err := p.inner.Rename(oldpath, newpath)
	if hash, isResult := p.resultHash(newpath); isResult && err == nil && p.on.Load() {
		at := nowNs()
		p.mu.Lock()
		p.renamed[hash] = at
		p.mu.Unlock()
	}
	return err
}

// SyncDir completes the persist of every result renamed before it began.
func (p *fsProbe) SyncDir(dir string) error {
	began := nowNs()
	err := p.inner.SyncDir(dir)
	if dir == p.results && err == nil && p.on.Load() {
		at := nowNs()
		p.mu.Lock()
		for hash, renamedAt := range p.renamed {
			if renamedAt <= began {
				p.persists[hash] = append(p.persists[hash], at)
				delete(p.renamed, hash)
			}
		}
		p.mu.Unlock()
	}
	return err
}

// probedFile counts journal appends and times fsyncs.
type probedFile struct {
	journal.File
	p         *fsProbe
	isJournal bool
}

func (f *probedFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	if f.isJournal && f.p.on.Load() {
		f.p.mu.Lock()
		f.p.writes++
		f.p.bytes += int64(n)
		f.p.mu.Unlock()
	}
	return n, err
}

func (f *probedFile) Sync() error {
	t0 := nowNs()
	err := f.File.Sync()
	if f.p.on.Load() {
		d := float64(nowNs()-t0) / 1e6
		f.p.mu.Lock()
		if f.isJournal {
			f.p.journalSyncMs = append(f.p.journalSyncMs, d)
		} else {
			f.p.resultSyncMs = append(f.p.resultSyncMs, d)
		}
		f.p.mu.Unlock()
	}
	return err
}

// attribute assigns the recorded stage times to the executed jobs, in
// admission order per result hash.
func (p *fsProbe) attribute(jobs []*jobRec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pop := func(m map[string][]int64, hash string) time.Duration {
		q := m[hash]
		if len(q) == 0 {
			return 0
		}
		m[hash] = q[1:]
		return time.Duration(q[0])
	}
	for _, j := range jobs {
		if j.cached || j.state != "done" {
			continue
		}
		j.attempt = pop(p.attempts, j.hash)
		j.create = pop(p.creates, j.hash)
		j.persist = pop(p.persists, j.hash)
	}
}

// layers adds the durability layer's metrics.
func (p *fsProbe) layers(m map[string]float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m["journal.write.calls"] = float64(p.writes)
	m["journal.bytes"] = float64(p.bytes)
	m["journal.fsync.ms.p50"], _, _ = percentile(p.journalSyncMs, 50)
	m["journal.fsync.ms.p99"], _, _ = percentile(p.journalSyncMs, 99)
	m["resultstore.fsync.ms"] = mean(p.resultSyncMs)
}
