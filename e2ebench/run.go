package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // parent of the run's store files
	spans    string // where a traced run writes its spans
	tiny     bool   // test sizes

	// afterGenerate, when set, is called with the workload once its inputs
	// are drawn. Tests use it to plant a fault.
	afterGenerate func(spec)
}

// setupsPerRun is how many times a run sets up; setup_s is their median.
func (c config) setupsPerRun() int {
	if c.tiny {
		return 2
	}
	return 5
}

// Operation kinds, for the per-layer denominators.
const (
	kindRead = iota
	kindQuery
	kindCommit
	kindReplica
)

// classStat accounts one operation class.
type classStat struct {
	kind                       int
	planned, attempted, failed int64
	lat                        durs // wall time of each successful operation
	cpu                        durs // process CPU time of each, when measured
}

// opSpan is one timed wire call, for joining with its server side.
type opSpan struct {
	id         uint64
	start, end int64
}

// worker runs one connection's operations and keeps their figures.
type worker struct {
	rec     *recorder
	cpu     bool // also measure the process CPU time of each operation
	classes map[string]*classStat
	ops     []opSpan
	errs    []error
}

func newWorker(rec *recorder) *worker {
	return &worker{rec: rec, classes: make(map[string]*classStat)}
}

// do runs one operation of class, timing it as a root span. A traced run
// keeps its wire calls for the join with the server's side of the
// connection.
func (w *worker) do(class string, kind int, wire bool, fn func() error) error {
	var c0 time.Duration
	if w.cpu {
		c0 = cpuTime()
	}
	id := w.rec.begin()
	s := w.rec.now()
	err := fn()
	e := w.rec.now()
	w.rec.end(id, class, s, e)
	var c1 time.Duration
	if w.cpu {
		c1 = cpuTime()
	}
	c := w.classes[class]
	if c == nil {
		c = &classStat{kind: kind}
		w.classes[class] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(w.errs) < 5 {
			w.errs = append(w.errs, fmt.Errorf("%s: %w", class, err))
		}
	} else {
		c.lat = append(c.lat, time.Duration(e-s))
		if w.cpu {
			c.cpu = append(c.cpu, c1-c0)
		}
	}
	if wire && id != 0 {
		w.ops = append(w.ops, opSpan{id, s, e})
	}
	return err
}

// tally is a whole run's operations.
type tally struct {
	classes map[string]*classStat
	wireOps [][]opSpan // per client connection
	errs    []error
	lag     durs // durable_write: last acknowledgement to follower read
}

func newTally(clients int) *tally {
	return &tally{classes: make(map[string]*classStat), wireOps: make([][]opSpan, clients)}
}

// latSlots reports a class group's median and p90 wall-clock latency.
func (t *tally) latSlots(label string, classes ...string) (p50, tail slot) {
	d := t.lat(classes...)
	return slot{"op_p50_us", label + ", wall p50", d.p50(), len(d)},
		slot{"op_tail_us", label + ", wall p90", d.pct(90), len(d)}
}

// p50Slot is one class group's median wall-clock latency.
func (t *tally) p50Slot(metric, label string, classes ...string) slot {
	d := t.lat(classes...)
	return slot{metric, label + ", wall p50", d.p50(), len(d)}
}

// cpuSlot is one class group's median process CPU time per operation.
func (t *tally) cpuSlot(metric, label string, classes ...string) slot {
	var d durs
	for _, n := range classes {
		if c := t.classes[n]; c != nil {
			d = append(d, c.cpu...)
		}
	}
	return slot{metric, label + ", process CPU p50", d.p50(), len(d)}
}

// plan declares a class and its planned count.
func (t *tally) plan(class string, kind int, n int64) {
	c := t.classes[class]
	if c == nil {
		c = &classStat{kind: kind}
		t.classes[class] = c
	}
	c.planned += n
}

// merge folds worker w, which drove client connection conn (-1 for none),
// into the tally.
func (t *tally) merge(w *worker, conn int) {
	for name, c := range w.classes {
		tc := t.classes[name]
		if tc == nil {
			tc = &classStat{kind: c.kind}
			t.classes[name] = tc
		}
		tc.attempted += c.attempted
		tc.failed += c.failed
		tc.lat = append(tc.lat, c.lat...)
		tc.cpu = append(tc.cpu, c.cpu...)
	}
	if conn >= 0 {
		t.wireOps[conn] = append(t.wireOps[conn], w.ops...)
	}
	t.errs = append(t.errs, w.errs...)
	*w = worker{rec: w.rec, cpu: w.cpu, classes: make(map[string]*classStat)}
}

func (t *tally) names() []string {
	var out []string
	for n := range t.classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (t *tally) totals() (attempted, failed int64) {
	for _, c := range t.classes {
		attempted += c.attempted
		failed += c.failed
	}
	return
}

// done counts the successful operations of a kind.
func (t *tally) done(kind int) int64 {
	var n int64
	for _, c := range t.classes {
		if c.kind == kind {
			n += c.attempted - c.failed
		}
	}
	return n
}

func (t *tally) lat(classes ...string) durs {
	var d durs
	for _, n := range classes {
		if c := t.classes[n]; c != nil {
			d = append(d, c.lat...)
		}
	}
	return d
}

// spec is one workload: its inputs, its timed loop and its checks.
type spec interface {
	clients() int
	// procs is the GOMAXPROCS the run uses, or 0 to leave it as it is.
	procs() int
	// generate draws every input from the seed. It runs inside set-up.
	generate(seed int64) (*loadPlan, error)
	// warm fills the pool, the partial index and the plan cache.
	warm(ctx context.Context, e *env) error
	// timed runs the measured operations, declaring their planned counts.
	timed(ctx context.Context, e *env, t *tally) error
	// userBytes is the XML the workload planned to write and the XML the
	// program acknowledged, loads included.
	userBytes() (planned, acked int64)
	// live is the orders in the store, in document order.
	live() docOrder
	// check verifies the program's answers after the timed phase.
	check(ctx context.Context, e *env, t *tally) []error
	// slots maps the workload's classes onto the end-to-end latency
	// metrics, returning each with the sample it came from.
	slots(t *tally) []slot
	// reopened verifies the store after it was closed and reopened.
	reopened(ctx context.Context, e *env, extra docOrder) []error
}

// slot is one end-to-end latency metric as a workload fills it.
type slot struct {
	metric, label string
	value         float64
	n             int
}

func newSpec(cfg config) (spec, error) {
	switch cfg.workload {
	case "read_zipf":
		return newReadZipf(cfg), nil
	case "query":
		return newQueryWL(cfg), nil
	case "durable_write":
		return newDurable(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want read_zipf, query or durable_write)", cfg.workload)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload and reports to out (human-readable lines).
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	sp, err := newSpec(cfg)
	if err != nil {
		return nil, err
	}
	if n := sp.procs(); n > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	}
	rec := newRecorder()

	var setups, setupCPU, setupSync []float64
	var e *env
	for i := 0; i < cfg.setupsPerRun(); i++ {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		lp, err := sp.generate(cfg.seed)
		if err != nil {
			return nil, err
		}
		if cfg.afterGenerate != nil {
			cfg.afterGenerate(sp)
		}
		if e, err = startEnv(ctx, cfg, rec, sp.clients(), lp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := sp.warm(ctx, e); err != nil {
			e.close(true)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
		setupSync = append(setupSync, float64(e.io.syncNs())/1e9)
		if i < cfg.setupsPerRun()-1 {
			if err := e.close(true); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
	}
	removed := false
	defer func() {
		if !removed {
			e.close(true)
		}
	}()

	runtime.GC()
	rec.on.Store(cfg.trace)
	wb := e.snap()
	hp := startHeapPeak()
	t := newTally(sp.clients())
	timedErr := sp.timed(ctx, e, t)
	peakHeap := hp.finish()
	wa := e.snap()
	rec.on.Store(false)
	if timedErr != nil {
		return nil, fmt.Errorf("timed phase: %w", timedErr)
	}
	stored, err := e.storeBytes()
	if err != nil {
		return nil, err
	}
	written := e.writtenBytes()

	attempted, failed := t.totals()
	var problems []error
	for _, n := range t.names() {
		c := t.classes[n]
		fmt.Fprintf(out, "class %-14s planned %7d attempted %7d failed %d\n", n, c.planned, c.attempted, c.failed)
		if c.attempted != c.planned {
			problems = append(problems, fmt.Errorf("class %s: attempted %d, planned %d", n, c.attempted, c.planned))
		}
	}
	// Every operation of these workloads is expected to succeed: a failed
	// one fails the run, or a program that answered some requests with a
	// quick error would pass with lower latencies.
	for _, err := range t.errs {
		fmt.Fprintf(out, "FAILED: %v\n", err)
	}
	if failed > 0 {
		problems = append(problems, fmt.Errorf("%d of %d operations failed", failed, attempted))
	}
	plannedBytes, ackedBytes := sp.userBytes()
	fmt.Fprintf(out, "user bytes planned %d acknowledged %d\n", plannedBytes, ackedBytes)
	if plannedBytes != ackedBytes {
		problems = append(problems, fmt.Errorf("user bytes: acknowledged %d, planned %d", ackedBytes, plannedBytes))
	}
	problems = append(problems, sp.check(ctx, e, t)...)

	elapsed := wa.at.Sub(wb.at).Seconds()
	slots := sp.slots(t)
	e2e := map[string]metric{
		"setup_s":                   {median(setups), "s"},
		"cpu_us_per_op":             {ratio(float64(wa.cpu-wb.cpu)/1e3, float64(attempted)), "us"},
		"heap_peak_mb":              {float64(peakHeap) / 1e6, "MB"},
		"store_bytes_per_user_byte": {ratio(float64(stored), float64(plannedBytes)), "ratio"},
		"write_bytes_per_user_byte": {ratio(float64(written), float64(plannedBytes)), "ratio"},
	}
	for _, s := range slots {
		e2e[s.metric] = metric{s.value, "us"}
	}
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %v: timed phase %.3f s\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, elapsed)
	fmt.Fprintf(out, "set-ups: wall %.3f s, process CPU %.3f s, in fsync %.3f s\n", setups, setupCPU, setupSync)
	// Throughput is printed, not reported in the result: with one closed-loop
	// connection it is the inverse of the mean latency, which the rare
	// slowest operations dominate, and on a shared machine it moved 25-30%
	// between sets of runs whose median latencies moved under 10%.
	fmt.Fprintf(out, "  %-28s %14.4f ops/s\n", "ops_per_s", float64(attempted)/elapsed)
	for _, n := range []string{"setup_s", "cpu_us_per_op", "heap_peak_mb", "store_bytes_per_user_byte", "write_bytes_per_user_byte"} {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, e2e[n].Value, e2e[n].Unit)
	}
	for _, s := range slots {
		fmt.Fprintf(out, "  %-28s %14.4f us  (%s, n=%d)\n", s.metric, s.value, s.label, s.n)
	}

	res := &result{Attempted: attempted, Failed: failed, Metrics: e2e}
	var extra docOrder
	if cfg.trace {
		rec.on.Store(true)
		wi0 := e.snap()
		ip, err := inproc(ctx, e, sp.live(), cfg.seed)
		wi1 := e.snap()
		handle, transport := joinServerSpans(e, t, wb)
		rec.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("in-process pass: %w", err)
		}
		problems = append(problems, ip.errs...)
		extra = ip.inserted
		res.Metrics = perLayer(t, ip, handle, transport, wb, wa, wi0, wi1)
		for _, n := range sortedKeys(res.Metrics) {
			fmt.Fprintf(out, "  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		if err := rec.writeJSON(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans written to %s\n", cfg.spans)
	}

	if err := e.close(false); err != nil {
		problems = append(problems, fmt.Errorf("close: %w", err))
	}
	problems = append(problems, sp.reopened(ctx, e, extra)...)
	removed = true
	if err := e.removeFiles(); err != nil {
		return nil, err
	}

	res.Correct = len(problems) == 0
	for i, p := range problems {
		if i == 20 {
			fmt.Fprintf(out, "... %d more problems\n", len(problems)-i)
			break
		}
		fmt.Fprintf(out, "PROBLEM: %v\n", p)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var errMismatch = errors.New("answer differs from the expected one")
