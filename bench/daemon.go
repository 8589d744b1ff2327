package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/runner"
	"github.com/flexray-go/coefficient/internal/serve"
	"github.com/flexray-go/coefficient/internal/serve/journal"
)

const (
	// daemonRate is the open-loop offered load in jobs per second, about
	// a sixth of the daemon's closed-loop capacity on a 2-core machine.
	// Under heavier load the queueing amplifies every slowdown of the
	// machine: at 50/s p90 moved 29–50% between runs, at 30/s 12–31%
	// (README.md, "Stability").
	daemonRate = 20.0
	// openShare is the share of a window spent in the open-loop phase;
	// the closed-loop phase gets the rest.
	openShare = 0.5
	// daemonQueue is the admission queue capacity.
	daemonQueue = 64
	// variantCycles is what one row of a Quick degradation result
	// simulated: the quick streaming horizon in 1 ms cycles.  The fig5
	// gate of TestTracedPathsAreTransparent holds quickHorizon to the
	// experiment package's quick horizon, which Degradation runs too.
	variantCycles = int64(quickHorizon / latencyCycle)
	// pollEvery is the done-detection quantum of the client.
	pollEvery = time.Millisecond
	// offlineChecks is how many served results are recomputed offline.
	offlineChecks = 20
	// stallLimit bounds any wait for the daemon to make progress.
	stallLimit = 60 * time.Second
)

// daemon is the daemon-mix workload: an in-process coefficientd
// (serve.New + Handler on a loopback listener, durable state in a
// temporary directory, fsync always) driven over HTTP by one client
// process — an open-loop phase of seeded Poisson arrivals, then a
// closed-loop phase with 2×workers jobs outstanding.
type daemon struct {
	seed    uint64
	workers int
	traced  bool

	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	fsp    *fsProbe

	// specs memoizes the job mix; jobs holds every job of every window.
	specs   []serve.JobSpec
	jobs    []*jobRec
	windows int
	// last describes the most recent window, for its per-layer metrics.
	last     []*jobRec
	maxDepth int
}

func newDaemon(seed uint64, traced bool) *daemon {
	return &daemon{seed: seed, workers: runner.Workers(0), traced: traced}
}

// jobRec is one submitted job and the timestamps (nowNs) of its stages.
type jobRec struct {
	spec   serve.JobSpec
	body   []byte
	closed bool // submitted by the closed-loop phase
	id     string
	hash   string
	cached bool
	state  string
	errMsg string
	table  string
	// variants is the number of rows, one per policy variant, in the
	// served result.
	variants int

	// Stage timestamps, as time since epoch: due, sent and done, the
	// POST's return and, in traced runs only, BeforeAttempt, the result
	// file's create and its rename + directory sync.
	openLoopTiming
	posted, attempt, create, persist time.Duration
}

// spec returns job j of the mix: a Quick degradation job at Parallel 1,
// BER-7/BER-9 80/20, minislots drawn from the Figure 5 sizes,
// criticality low/normal/high 20/70/10 — or, one time in ten, an earlier
// job's spec again, which the result cache serves.
func (d *daemon) spec(j int) serve.JobSpec {
	for len(d.specs) <= j {
		i := len(d.specs)
		rng := fault.NewRNG(runner.CellSeed(d.seed, streamJobMix, uint64(i)))
		if i > 0 && rng.Float64() < 0.1 {
			d.specs = append(d.specs, d.specs[rng.Intn(i)])
			continue
		}
		s := serve.JobSpec{
			Seed:        runner.CellSeed(d.seed, streamJobSeed, uint64(i)),
			Quick:       true,
			Setting:     "BER-7",
			Minislots:   fig5Minislots[rng.Intn(len(fig5Minislots))],
			Parallel:    1,
			Criticality: "normal",
		}
		if rng.Float64() < 0.2 {
			s.Setting = "BER-9"
		}
		switch u := rng.Float64(); {
		case u < 0.2:
			s.Criticality = "low"
		case u >= 0.9:
			s.Criticality = "high"
		}
		d.specs = append(d.specs, s)
	}
	return d.specs[j]
}

// setUp boots a fresh daemon on a fresh state directory and runs one
// warm-up job through it.
func (d *daemon) setUp() error {
	dir, err := os.MkdirTemp("", "coefficientd-bench-")
	if err != nil {
		return err
	}
	d.dir = dir
	cfg := serve.Config{Workers: d.workers, QueueCapacity: daemonQueue, StateDir: dir}
	if d.traced {
		d.fsp = newFSProbe(journal.OS(), dir)
		cfg.FS = d.fsp
		cfg.Hooks.BeforeAttempt = d.fsp.beforeAttempt
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	d.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: d.workers, MaxIdleConnsPerHost: d.workers,
	}}
	// The warm-up job does not depend on the run's seed, so neither does
	// the set-up's cost.
	warm := serve.JobSpec{Seed: runner.CellSeed(pinnedSeed, streamWarmup, 0), Quick: true, Minislots: 50, Parallel: 1}
	body, err := json.Marshal(warm)
	if err != nil {
		return err
	}
	status, resp, err := d.post(body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("warm-up job: HTTP %d", status)
	}
	for deadline := time.Now().Add(stallLimit); ; {
		st, err := d.status(resp.ID)
		if err != nil {
			return err
		}
		if st.State == "done" {
			return nil
		}
		if st.State != "queued" && st.State != "running" {
			return fmt.Errorf("warm-up job %s: %s %s", resp.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return errors.New("warm-up job did not finish")
		}
		time.Sleep(pollEvery)
	}
}

// tearDown drains the daemon, stops its listener and removes its state.
func (d *daemon) tearDown() error {
	if d.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), stallLimit)
	defer cancel()
	errs := []error{d.srv.Drain(ctx)}
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		d.client.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(d.dir))
	d.srv, d.hs = nil, nil
	return errors.Join(errs...)
}

// submitResp is the POST /jobs reply (202 or cached 200).
type submitResp struct {
	ID     string        `json:"id"`
	Hash   string        `json:"hash"`
	Status string        `json:"status"`
	Result *serve.Result `json:"result"`
}

// jobStatus is the part of the GET /jobs/{id} reply the client reads.
type jobStatus struct {
	State  string        `json:"state"`
	Error  string        `json:"error"`
	Result *serve.Result `json:"result"`
}

// health is the part of the /healthz reply the client reads.
type health struct {
	Done           int `json:"done"`
	Failed         int `json:"failed"`
	Shed           int `json:"shed"`
	Quarantined    int `json:"quarantined"`
	QueueDepth     int `json:"queueDepth"`
	DoubleReports  int `json:"doubleReports"`
	StoreConflicts int `json:"storeConflicts"`
}

func (h health) terminal() int { return h.Done + h.Failed + h.Shed + h.Quarantined }

func (d *daemon) post(body []byte) (int, submitResp, error) {
	var r submitResp
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, r, err
	}
	data, err := readBody(resp)
	if err != nil {
		return 0, r, err
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(data, &r)
	} else {
		r.Status = string(data)
	}
	return resp.StatusCode, r, err
}

func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	data, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

func (d *daemon) status(id string) (jobStatus, error) {
	var st jobStatus
	err := d.get("/jobs/"+id, &st)
	return st, err
}

func (d *daemon) health() (health, error) {
	var h health
	err := d.get("/healthz", &h)
	return h, err
}

// readBody reads and closes a response body.
func readBody(resp *http.Response) ([]byte, error) {
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// watcher observes job completions: every pollEvery, while jobs are
// outstanding, it reads /healthz and, when the daemon's terminal count
// moved, fetches the outstanding jobs' status in admission order.
type watcher struct {
	d        *daemon
	baseline int
	// completions hands closed-loop completions to the submitter; its
	// buffer holds as many as can be in flight, so a send never blocks.
	completions  chan *jobRec
	stop, exited chan struct{}

	mu          sync.Mutex
	outstanding []*jobRec
	observed    int
	maxDepth    int
	err         error
}

func (d *daemon) startWatcher(inflight int) (*watcher, error) {
	h, err := d.health()
	if err != nil {
		return nil, err
	}
	w := &watcher{
		d: d, baseline: h.terminal(),
		completions: make(chan *jobRec, inflight),
		stop:        make(chan struct{}), exited: make(chan struct{}),
	}
	go w.run()
	return w, nil
}

func (w *watcher) run() {
	defer close(w.exited)
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if err := w.poll(); err != nil {
				w.mu.Lock()
				w.err = err
				w.mu.Unlock()
				return
			}
		}
	}
}

// halt stops the watcher and returns the first error it met.
func (w *watcher) halt() error {
	close(w.stop)
	<-w.exited
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *watcher) add(j *jobRec) {
	w.mu.Lock()
	w.outstanding = append(w.outstanding, j)
	w.mu.Unlock()
}

func (w *watcher) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.outstanding)
}

func (w *watcher) poll() error {
	w.mu.Lock()
	jobs := append([]*jobRec(nil), w.outstanding...)
	w.mu.Unlock()
	if len(jobs) == 0 {
		return nil
	}
	h, err := w.d.health()
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.maxDepth = max(w.maxDepth, h.QueueDepth)
	fresh := h.terminal() - w.baseline - w.observed
	w.mu.Unlock()
	for _, j := range jobs {
		if fresh <= 0 {
			return nil
		}
		st, err := w.d.status(j.id)
		if err != nil {
			return err
		}
		if st.State == "queued" || st.State == "running" {
			continue
		}
		j.done = time.Duration(nowNs())
		j.state, j.errMsg = st.State, st.Error
		if st.Result != nil {
			j.table, j.variants = st.Result.Table, len(st.Result.Rows)
		}
		fresh--
		w.mu.Lock()
		w.observed++
		for i, o := range w.outstanding {
			if o == j {
				w.outstanding = append(w.outstanding[:i], w.outstanding[i+1:]...)
				break
			}
		}
		w.mu.Unlock()
		if j.closed {
			w.completions <- j
		}
	}
	return nil
}

// submit posts job j; an admitted job is handed to the watcher, a cached
// one is done when the POST returns.
func (d *daemon) submit(j *jobRec, w *watcher) error {
	j.sent = time.Duration(nowNs())
	status, resp, err := d.post(j.body)
	j.posted = time.Duration(nowNs())
	if err != nil {
		return err
	}
	switch status {
	case http.StatusAccepted:
		j.id, j.hash = resp.ID, resp.Hash
		w.add(j)
	case http.StatusOK:
		j.cached, j.hash, j.state, j.done = true, resp.Hash, "done", j.posted
		if resp.Result != nil {
			j.table, j.variants = resp.Result.Table, len(resp.Result.Rows)
		}
	default:
		j.state, j.errMsg = "rejected", fmt.Sprintf("HTTP %d: %s", status, resp.Status)
	}
	return nil
}

func (d *daemon) newJob(closed bool) (*jobRec, error) {
	spec := d.spec(len(d.jobs))
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	j := &jobRec{spec: spec, body: body, closed: closed}
	d.jobs = append(d.jobs, j)
	return j, nil
}

// openLoop sends jobs at their seeded Poisson due times over dur,
// whatever the daemon's state, then waits until every one completed.
func (d *daemon) openLoop(dur time.Duration, w *watcher) error {
	rng := fault.NewRNG(runner.CellSeed(d.seed, streamArrivals, uint64(d.windows)))
	start := time.Duration(nowNs())
	for _, due := range arrivals(rng, daemonRate, dur) {
		j, err := d.newJob(false)
		if err != nil {
			return err
		}
		j.due = start + due
		if wait := j.due - time.Duration(nowNs()); wait > 0 {
			time.Sleep(wait)
		}
		if err := d.submit(j, w); err != nil {
			return err
		}
	}
	for deadline := time.Now().Add(stallLimit); w.pending() > 0; time.Sleep(pollEvery) {
		if time.Now().After(deadline) {
			return errors.New("open loop: jobs still outstanding after the stall limit")
		}
	}
	return nil
}

// closedLoop keeps `limit` jobs outstanding until dur has elapsed, then
// waits for the last of them.
func (d *daemon) closedLoop(dur time.Duration, limit int, w *watcher) error {
	deadline := nowNs() + int64(dur)
	inflight := 0
	for {
		for inflight < limit && nowNs() < deadline {
			j, err := d.newJob(true)
			if err != nil {
				return err
			}
			j.due = time.Duration(nowNs())
			if err := d.submit(j, w); err != nil {
				return err
			}
			if j.id != "" {
				inflight++
			}
		}
		if inflight == 0 {
			return nil
		}
		select {
		case <-w.completions:
			inflight--
		case <-time.After(stallLimit):
			return errors.New("closed loop: no completion within the stall limit")
		}
	}
}

func (d *daemon) window(dur time.Duration, tp *probes) (windowResult, error) {
	limit := 2 * d.workers
	w, err := d.startWatcher(limit)
	if err != nil {
		return windowResult{}, err
	}
	if tp != nil {
		d.fsp.start()
	}
	first := len(d.jobs)
	start := nowNs()
	openDur := time.Duration(float64(dur) * openShare)
	err = d.openLoop(openDur, w)
	closedStart := nowNs()
	if err == nil {
		err = d.closedLoop(dur-openDur, limit, w)
	}
	end := nowNs()
	if tp != nil {
		d.fsp.stop()
	}
	if herr := w.halt(); err == nil {
		err = herr
	}
	d.windows++
	if err != nil {
		return windowResult{}, err
	}
	d.last, d.maxDepth = d.jobs[first:], w.maxDepth
	res := windowResult{wall: time.Duration(end - start), thrWall: time.Duration(end - closedStart)}
	for _, j := range d.last {
		res.attempted++
		if j.state != "done" {
			res.fail(fmt.Errorf("job %s (%s): %s %s", j.id, j.hash, j.state, j.errMsg))
			continue
		}
		var cycles int64
		if !j.cached {
			cycles = int64(j.variants) * variantCycles
		}
		res.cycles += cycles
		if j.closed {
			res.thrJobs++
			res.thrCycles += cycles
		} else {
			res.latMs = append(res.latMs, ms(j.latency()))
		}
	}
	return res, nil
}

func (d *daemon) check(*probes) error {
	h, err := d.health()
	if err != nil {
		return err
	}
	if h.Failed+h.Shed+h.Quarantined+h.DoubleReports+h.StoreConflicts > 0 {
		return fmt.Errorf("daemon: %d failed, %d shed, %d quarantined, %d double reports, %d store conflicts",
			h.Failed, h.Shed, h.Quarantined, h.DoubleReports, h.StoreConflicts)
	}
	// Every served result belongs to its spec; a seeded sample of the
	// distinct results is recomputed offline and must match byte for byte.
	byHash := make(map[string]*jobRec)
	for _, j := range d.jobs {
		if j.state != "done" {
			return fmt.Errorf("daemon: job %s ended %s", j.id, j.state)
		}
		want, err := j.spec.CanonicalHash()
		if err != nil {
			return err
		}
		if j.hash != want {
			return fmt.Errorf("daemon: job %s served hash %s, its spec hashes to %s", j.id, j.hash, want)
		}
		if prev, ok := byHash[j.hash]; ok && prev.table != j.table {
			return fmt.Errorf("daemon: two results for %s", j.hash)
		}
		byHash[j.hash] = j
	}
	hashes := make([]string, 0, len(byHash))
	for h := range byHash {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	rng := fault.NewRNG(runner.CellSeed(d.seed, streamSample, 1))
	for i := 0; i < offlineChecks && i < len(hashes); i++ {
		k := i + rng.Intn(len(hashes)-i)
		hashes[i], hashes[k] = hashes[k], hashes[i]
		j := byHash[hashes[i]]
		rows, err := experiment.Degradation(degradationOptions(j.spec))
		if err != nil {
			return fmt.Errorf("daemon offline re-run of %s: %w", j.hash, err)
		}
		if table := experiment.DegradationTable(rows).String(); table != j.table {
			return fmt.Errorf("daemon: served table for %s differs from the offline run:\n%s\nvs\n%s", j.hash, j.table, table)
		}
	}
	return nil
}

// degradationOptions is the offline equivalent of a job spec, as the
// daemon's workers run it.
func degradationOptions(s serve.JobSpec) experiment.DegradationOptions {
	setting := experiment.BER7()
	if s.Setting == "BER-9" {
		setting = experiment.BER9()
	}
	return experiment.DegradationOptions{
		Scenario: s.Scenario, Setting: setting, Seed: s.Seed,
		Quick: s.Quick, Minislots: s.Minislots, Parallel: s.Parallel,
	}
}

// layers turns the traced window's job timestamps into stage metrics
// and spans: admit (POST round trip, admitted record fsynced), queue
// wait (POST return → BeforeAttempt), attempt (→ result file created),
// persist (→ renamed and directory synced) and done lag (→ done
// observed by the polling client).
func (d *daemon) layers(tp *probes, w windowResult, m map[string]float64) {
	d.fsp.attribute(d.last)
	var admit, queue, attempt, persist, lag, late, latency []float64
	var busy time.Duration
	cached := 0
	for _, j := range d.last {
		if j.cached {
			cached++
			continue
		}
		if !j.closed {
			latency = append(latency, ms(j.latency()))
		}
		if j.attempt == 0 || j.create == 0 || j.persist == 0 {
			continue
		}
		busy += j.persist - j.attempt
		if j.closed {
			continue
		}
		root := tp.tr.record("daemon.job", j.id, 0, int64(j.due), int64(j.done))
		stages := []struct {
			name     string
			from, to time.Duration
			into     *[]float64
		}{
			{"loadgen.lateness", j.due, j.sent, &late},
			{"serve.admit", j.sent, j.posted, &admit},
			{"serve.queue_wait", j.posted, j.attempt, &queue},
			{"serve.attempt", j.attempt, j.create, &attempt},
			{"serve.persist", j.create, j.persist, &persist},
			{"serve.done_lag", j.persist, j.done, &lag},
		}
		for _, s := range stages {
			tp.tr.record(s.name, j.id, root, int64(s.from), int64(s.to))
			*s.into = append(*s.into, ms(s.to-s.from))
		}
	}
	pct := func(xs []float64, p int) float64 {
		v, _, _ := percentile(xs, p)
		return v
	}
	m["serve.admit.ms.p50"], m["serve.admit.ms.p99"] = pct(admit, 50), pct(admit, 99)
	m["serve.queue_wait.ms.p50"], m["serve.queue_wait.ms.p99"] = pct(queue, 50), pct(queue, 99)
	m["serve.attempt.ms.p50"], m["serve.attempt.ms.p99"] = pct(attempt, 50), pct(attempt, 99)
	m["serve.persist.ms"] = mean(persist)
	m["serve.done_lag.ms"] = mean(lag)
	m["serve.cache_hit_ratio"] = ratio(int64(cached), int64(len(d.last)))
	m["serve.queue_depth.max"] = float64(d.maxDepth)
	if lm := mean(latency); lm > 0 {
		stageSum := mean(late) + mean(admit) + mean(queue) + mean(attempt) + mean(persist) + mean(lag)
		m["serve.reconcile_error"] = (stageSum - lm) / lm
	}
	if len(late) > 0 {
		m["loadgen.lateness.ms.max"] = maxOf(late)
	}
	m["pool.busy_ratio"] = float64(busy) / (float64(d.workers) * float64(w.wall))
	d.fsp.layers(m)
}

func maxOf(xs []float64) float64 {
	v := xs[0]
	for _, x := range xs[1:] {
		v = max(v, x)
	}
	return v
}
