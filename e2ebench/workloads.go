package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/token"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// Nominal operation rates. A run's planned count is its --seconds times
// the rate, so counts repeat exactly for a given run length and the timed
// phase lasts about --seconds on a 2-vCPU machine. They are fixed, not
// measured: a faster program finishes the same work sooner.
const (
	zipfReadsPerSecond  = 10000 // read_zipf: wire reads
	queryRoundsPerSec   = 4     // query: rounds of the shape list
	durableRoundsPerSec = 9     // durable_write: rounds of both writers
)

// ---------------------------------------------------------------- read_zipf

// readZipf reads Zipf-skewed <line> elements of a purchase-order store
// larger than the buffer pool, with far more lines than the partial index
// holds entries.
type readZipf struct {
	orders       int
	batch        int
	zipfS        float64
	hotRank      int // ranks up to this count as hot: the partial index's capacity
	reads, warms int

	lp            *loadPlan
	ids           []core.NodeID
	hot           []bool
	warmIDs       []core.NodeID
	seen          map[core.NodeID]uint64 // hash of each node's first answer
	firstMismatch error
}

// answerSeed hashes read_zipf's answers. The timed phase keeps a hash per
// node, not the answer, so the heap it measures is the program's and does
// not grow with the number of distinct nodes read.
var answerSeed = maphash.MakeSeed()

func newReadZipf(cfg config) *readZipf {
	w := &readZipf{orders: 20000, batch: 500, zipfS: 1.1, hotRank: 4096,
		reads: cfg.seconds * zipfReadsPerSecond, warms: 8000}
	if cfg.tiny {
		w.orders, w.batch, w.hotRank, w.reads, w.warms = 60, 20, 100, 300, 50
	}
	return w
}

func (w *readZipf) clients() int { return 1 }

// procs is 1: client, server and collector take turns on one thread, so a
// ~50 µs wire round trip is the program's CPU work and not a wake-up of
// the other vCPU, whose delay on a shared host moved the wall p50 by over
// a third between runs of the same build.
func (w *readZipf) procs() int { return 1 }

func (w *readZipf) generate(seed int64) (*loadPlan, error) {
	g := workload.New(seed)
	lp, err := planLoad(g, w.orders, w.batch, 0)
	if err != nil {
		return nil, err
	}
	// Reads target <line> elements: every one is a subtree of the same
	// shape, so the seed moves which nodes are hot but not how much a
	// read returns.
	var lines []core.NodeID
	for _, p := range lp.orders {
		for j := range p.o.lines {
			lines = append(lines, lineNode(p.first, j, 0))
		}
	}
	perm := g.Perm(len(lines))
	z := g.Zipf(uint64(len(lines)), w.zipfS)
	draw := func() (core.NodeID, bool) {
		r := int(z())
		return lines[perm[r-1]], r <= w.hotRank
	}
	w.warmIDs = make([]core.NodeID, w.warms)
	for i := range w.warmIDs {
		w.warmIDs[i], _ = draw()
	}
	w.ids, w.hot = make([]core.NodeID, w.reads), make([]bool, w.reads)
	for i := range w.ids {
		w.ids[i], w.hot[i] = draw()
	}
	w.lp = lp
	return lp, nil
}

func (w *readZipf) warm(ctx context.Context, e *env) error {
	for _, id := range w.warmIDs {
		if _, err := e.clients[0].ReadNode(ctx, id); err != nil {
			return fmt.Errorf("read %d: %w", id, err)
		}
	}
	return nil
}

func (w *readZipf) timed(ctx context.Context, e *env, t *tally) error {
	var hot int64
	for _, h := range w.hot {
		if h {
			hot++
		}
	}
	t.plan("read_hot", kindRead, hot)
	t.plan("read_cold", kindRead, int64(len(w.ids))-hot)
	w.seen = make(map[core.NodeID]uint64)
	wk := newWorker(e.rec)
	c := e.clients[0]
	for i, id := range w.ids {
		class := "read_cold"
		if w.hot[i] {
			class = "read_hot"
		}
		var got string
		err := wk.do(class, kindRead, true, func() (err error) {
			got, err = c.ReadNode(ctx, id)
			return err
		})
		if err != nil {
			continue
		}
		h := maphash.String(answerSeed, got)
		if prev, ok := w.seen[id]; !ok {
			w.seen[id] = h
		} else if prev != h && w.firstMismatch == nil {
			w.firstMismatch = fmt.Errorf("read %d: answer changed between reads of an unchanged store", id)
		}
	}
	t.merge(wk, 0)
	return nil
}

func (w *readZipf) userBytes() (int64, int64) { return w.lp.bytes, w.lp.bytes }
func (w *readZipf) live() docOrder            { return w.lp.orders }

func (w *readZipf) check(ctx context.Context, e *env, t *tally) []error {
	var errs []error
	if w.firstMismatch != nil {
		errs = append(errs, w.firstMismatch)
	}
	// Every node read in the timed phase is read again: the answer must be
	// the one the phase saw, and the generator's subtree.
	for id, h := range w.seen {
		got, err := e.clients[0].ReadNode(ctx, id)
		if err == nil && maphash.String(answerSeed, got) != h {
			err = fmt.Errorf("read %d: answer differs from the timed phase's", id)
		}
		if err == nil {
			err = checkNode(w.lp.orders, id, got)
		}
		if err != nil {
			errs = append(errs, err)
			if len(errs) > 10 {
				break
			}
		}
	}
	return errs
}

func (w *readZipf) slots(t *tally) []slot {
	p50, tail := t.latSlots("wire ReadNode", "read_hot", "read_cold")
	return []slot{p50, tail,
		t.p50Slot("op2_p50_us", "wire ReadNode of a cold line (Zipf rank beyond the partial index's capacity)", "read_cold"),
		t.p50Slot("op3_p50_us", "wire ReadNode of a hot line (Zipf rank within the partial index's capacity)", "read_hot"),
	}
}

func (w *readZipf) reopened(ctx context.Context, e *env, extra docOrder) []error { return nil }

// checkNode compares a wire ReadNode answer with the generator's subtree.
func checkNode(d docOrder, id core.NodeID, got string) error {
	o, k, ok := d.lookup(id)
	if !ok {
		return fmt.Errorf("read %d: no such node in the generated document", id)
	}
	c, err := canonXML(got)
	if err != nil {
		return fmt.Errorf("read %d: %w", id, err)
	}
	if want := o.expectNode(k); c != want {
		return fmt.Errorf("read %d: %w: got %.120q, want %.120q", id, errMismatch, c, want)
	}
	return nil
}

// -------------------------------------------------------------------- query

// queryWL runs a fixed round of query shapes over a store that fits in the
// buffer pool: pushdown paths and child-value-predicate fallbacks through
// the wire, and one FLWOR in process (the wire protocol has no XQuery
// request).
type queryWL struct {
	orders int
	batch  int
	rounds int

	lp       *loadPlan
	shapes   []shape
	first    []answer // each shape's answer in the first round
	firstErr error
}

func newQueryWL(cfg config) *queryWL {
	w := &queryWL{orders: 2000, batch: 500, rounds: cfg.seconds * queryRoundsPerSec}
	if cfg.tiny {
		w.orders, w.batch, w.rounds = 40, 20, 2
	}
	return w
}

func (w *queryWL) clients() int { return 1 }
func (w *queryWL) procs() int   { return 0 }

// pickShapes draws the pushdown literals (eight order ids and two
// positions) from the loaded orders.
func pickShapes(g *workload.Gen, d docOrder) []shape {
	perm := g.Perm(len(d))
	var lits []string
	var pos []int
	for i := 0; i < 10 && i < len(perm); i++ {
		if i < 8 {
			lits = append(lits, d[perm[i]].o.id)
		} else {
			pos = append(pos, perm[i]+1)
		}
	}
	return queryShapes(lits, pos)
}

func (w *queryWL) generate(seed int64) (*loadPlan, error) {
	g := workload.New(seed)
	lp, err := planLoad(g, w.orders, w.batch, 0)
	if err != nil {
		return nil, err
	}
	w.lp, w.shapes = lp, pickShapes(g, lp.orders)
	return lp, nil
}

// answer is one run of a shape: its rows, or a FLWOR's tokens.
type answer struct {
	rows []server.Row
	toks []token.Token
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.rows, b.rows) && slices.Equal(a.toks, b.toks)
}

// runShape runs one shape: a path through the wire, a FLWOR in process.
func runShape(ctx context.Context, e *env, sh shape) (answer, error) {
	if sh.flwor {
		toks, err := xquery.EvalStoreCtx(ctx, e.st, sh.expr)
		return answer{toks: toks}, err
	}
	rows, err := e.clients[0].Query(ctx, sh.expr)
	return answer{rows: rows}, err
}

func (w *queryWL) warm(ctx context.Context, e *env) error {
	for _, sh := range w.shapes {
		if _, err := runShape(ctx, e, sh); err != nil {
			return fmt.Errorf("%s: %w", sh.expr, err)
		}
	}
	return nil
}

func (w *queryWL) timed(ctx context.Context, e *env, t *tally) error {
	for _, sh := range w.shapes {
		t.plan(sh.class, kindQuery, int64(w.rounds))
	}
	w.first = make([]answer, len(w.shapes))
	wk := newWorker(e.rec)
	wk.cpu = true
	for r := 0; r < w.rounds; r++ {
		for i, sh := range w.shapes {
			// A fallback or FLWOR query builds the whole store's tree. The
			// collection before each one, and before each round's first
			// query, starts every heavy query on the same heap and keeps the
			// garbage of one class out of the next one's figures.
			if i == 0 || sh.class != classPushdown {
				runtime.GC()
			}
			var got answer
			err := wk.do(sh.class, kindQuery, !sh.flwor, func() (err error) {
				got, err = runShape(ctx, e, sh)
				return err
			})
			if err != nil {
				continue
			}
			if r == 0 {
				w.first[i] = got
			} else if !got.equal(w.first[i]) && w.firstErr == nil {
				w.firstErr = fmt.Errorf("%s: answer changed between rounds over an unchanged store", sh.expr)
			}
		}
	}
	t.merge(wk, 0)
	return nil
}

func (w *queryWL) userBytes() (int64, int64) { return w.lp.bytes, w.lp.bytes }
func (w *queryWL) live() docOrder            { return w.lp.orders }

func (w *queryWL) check(ctx context.Context, e *env, t *tally) []error {
	var errs []error
	if w.firstErr != nil {
		errs = append(errs, w.firstErr)
	}
	for i, sh := range w.shapes {
		if err := checkAnswer(sh, w.first[i], w.lp.orders); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// checkAnswer compares one shape's answer with the one computed from the
// records.
func checkAnswer(sh shape, a answer, d docOrder) error {
	if sh.flwor {
		got, err := canonTokens(a.toks)
		if err != nil {
			return fmt.Errorf("%s: %w", sh.expr, err)
		}
		if want := expectFLWOR(d); got != want {
			return fmt.Errorf("%s: %w: got %.200q, want %.200q", sh.expr, errMismatch, got, want)
		}
		return nil
	}
	want := sh.expect(d)
	if len(a.rows) != len(want) {
		return fmt.Errorf("%s: %w: %d rows, want %d", sh.expr, errMismatch, len(a.rows), len(want))
	}
	for i, r := range a.rows {
		xml, err := canonXML(r.XML)
		if err != nil {
			return fmt.Errorf("%s: %w", sh.expr, err)
		}
		if got := (row{r.ID, xml}); got != want[i] {
			return fmt.Errorf("%s: row %d: %w: got %d %q, want %d %q", sh.expr, i, errMismatch, got.id, got.xml, want[i].id, want[i].xml)
		}
	}
	return nil
}

func (w *queryWL) slots(t *tally) []slot {
	p50, tail := t.latSlots("wire pushdown query", classPushdown)
	return []slot{p50, tail,
		t.cpuSlot("op2_p50_us", "wire fallback query", classFallback),
		t.cpuSlot("op3_p50_us", "in-process XQuery FLWOR", classXQuery),
	}
}

func (w *queryWL) reopened(ctx context.Context, e *env, extra docOrder) []error { return nil }

const (
	classPushdown = "pushdown"
	classFallback = "fallback"
	classXQuery   = "xquery"
)

// ------------------------------------------------------------ durable_write

// mutation is one planned write of a writer.
type mutation struct {
	insert *order // nil for a delete
	xml    string
	del    int // delete: index of this writer's earlier insert
}

// writerRound is one writer's share of a round: its mutations, then the
// read-backs of some of its live inserts.
type writerRound struct {
	muts     []mutation
	firstIns int   // insert index of the round's first insert
	reads    []int // insert indexes read back after the round's writes
}

// writerPlan is one connection's whole plan, round by round.
type writerPlan struct {
	rounds []writerRound
	ids    []core.NodeID // acknowledged id of each insert, by insert index
	orders []*order
	dead   []bool
	acked  int64      // XML bytes acknowledged
	reads  []readBack // read-back answers
	last   []int64    // per round: when the writer's last mutation was acknowledged
}

type readBack struct {
	k   int // insert index
	got string
}

// durable runs two writers committing durable mutations in rounds. After
// each round's writes the follower catches up and serves the round's last
// write; then both writers read back some of their acknowledged inserts.
// Read-backs run while no commit does, so their latency is the read path's
// and not the wait for the other writer's commit.
type durable struct {
	orders   int
	batch    int
	rounds   int
	perRound int // mutations per writer per round

	lp      *loadPlan
	writers []*writerPlan
	planned int64
	lastErr []error
}

func newDurable(cfg config) *durable {
	w := &durable{orders: 1000, batch: 500, rounds: cfg.seconds * durableRoundsPerSec, perRound: 20}
	if cfg.tiny {
		w.orders, w.batch, w.rounds, w.perRound = 40, 20, 3, 10
	}
	return w
}

func (w *durable) clients() int { return 2 }
func (w *durable) procs() int   { return 0 }

// Each writer's round: every tenth mutation (the sixth) deletes one of the
// writer's earlier inserts, the rest insert one order as the last child of
// the root; the round ends with an insert. Then the writer reads back one
// live insert per three mutations.
func (w *durable) generate(seed int64) (*loadPlan, error) {
	g := workload.New(seed)
	lp, err := planLoad(g, w.orders, w.batch, 0)
	if err != nil {
		return nil, err
	}
	w.lp, w.planned = lp, lp.bytes
	w.writers = nil
	for wi := 0; wi < 2; wi++ {
		p := &writerPlan{}
		var live []int
		pick := func() int { return int(g.Uniform(uint64(len(live)))()) - 1 }
		for r := 0; r < w.rounds; r++ {
			wr := writerRound{firstIns: len(p.orders)}
			for j := 0; j < w.perRound; j++ {
				var m mutation
				if j%10 == 5 && len(live) > 0 {
					k := pick()
					m.del = live[k]
					live = append(live[:k], live[k+1:]...)
				} else {
					o, err := genOrder(g, 1000000*(wi+1)+len(p.orders))
					if err != nil {
						return nil, err
					}
					m.insert, m.xml = o, o.xmlText()
					live = append(live, len(p.orders))
					p.orders = append(p.orders, o)
					w.planned += int64(len(m.xml))
				}
				wr.muts = append(wr.muts, m)
			}
			for j := 0; j < w.perRound/3; j++ {
				wr.reads = append(wr.reads, live[pick()])
			}
			p.rounds = append(p.rounds, wr)
		}
		p.ids = make([]core.NodeID, len(p.orders))
		p.dead = make([]bool, len(p.orders))
		w.writers = append(w.writers, p)
	}
	return lp, nil
}

func (w *durable) warm(ctx context.Context, e *env) error {
	for i := 0; i < len(w.lp.orders); i += 5 {
		id := w.lp.orders[i].first
		for _, c := range e.clients {
			if _, err := c.ReadNode(ctx, id); err != nil {
				return fmt.Errorf("read %d: %w", id, err)
			}
		}
	}
	return nil
}

// both runs fn for each writer on its own connection, concurrently, and
// merges the workers when both are done.
func (w *durable) both(e *env, t *tally, workers []*worker, fn func(c *server.Client, wk *worker, p *writerPlan)) {
	var wg sync.WaitGroup
	for wi, p := range w.writers {
		wg.Add(1)
		go func(c *server.Client, wk *worker, p *writerPlan) {
			defer wg.Done()
			fn(c, wk, p)
		}(e.clients[wi], workers[wi], p)
	}
	wg.Wait()
	for wi := range workers {
		t.merge(workers[wi], wi)
	}
}

func (w *durable) timed(ctx context.Context, e *env, t *tally) error {
	for _, p := range w.writers {
		for _, wr := range p.rounds {
			for _, m := range wr.muts {
				if m.insert != nil {
					t.plan("insert", kindCommit, 1)
				} else {
					t.plan("delete", kindCommit, 1)
				}
			}
			t.plan("readback", kindRead, int64(len(wr.reads)))
		}
	}
	t.plan("catchup", kindReplica, int64(w.rounds))
	t.plan("follower_read", kindRead, int64(w.rounds))

	workers := []*worker{newWorker(e.rec), newWorker(e.rec)}
	main := newWorker(e.rec)
	for r := 0; r < w.rounds; r++ {
		w.both(e, t, workers, func(c *server.Client, wk *worker, p *writerPlan) {
			p.last = append(p.last, w.writeRound(ctx, c, wk, p, r))
		})
		// Both writers are idle: ship the round to the follower and read
		// its last write there.
		lastW, lastAt := 0, w.writers[0].last[r]
		if w.writers[1].last[r] > lastAt {
			lastW, lastAt = 1, w.writers[1].last[r]
		}
		p := w.writers[lastW]
		k := p.rounds[r].firstIns
		for _, m := range p.rounds[r].muts {
			if m.insert != nil {
				k++
			}
		}
		k-- // the round's last mutation is an insert
		_ = main.do("catchup", kindReplica, false, func() error { return e.fol.CatchUp(ctx) })
		var got []core.Item
		err := main.do("follower_read", kindRead, false, func() error {
			return e.fol.Read(replica.ReadOptions{}, func(st *core.Store) (err error) {
				got, err = st.ReadNodeCtx(ctx, p.ids[k])
				return err
			})
		})
		done := e.rec.now()
		if err == nil {
			t.lag = append(t.lag, time.Duration(done-lastAt))
			if c, cerr := canonTokens(itemTokens(got)); cerr != nil || c != p.orders[k].expectNode(0) {
				w.lastErr = append(w.lastErr, fmt.Errorf("round %d: follower read of %d: %w (%v)", r, p.ids[k], errMismatch, cerr))
			}
		}
		w.both(e, t, workers, func(c *server.Client, wk *worker, p *writerPlan) {
			for _, k := range p.rounds[r].reads {
				var got string
				err := wk.do("readback", kindRead, true, func() (err error) {
					got, err = c.ReadNode(ctx, p.ids[k])
					return err
				})
				if err == nil {
					p.reads = append(p.reads, readBack{k, got})
				}
			}
		})
		t.merge(main, -1)
	}
	return nil
}

// writeRound runs one writer's mutations of round r and returns when the
// last was acknowledged.
func (w *durable) writeRound(ctx context.Context, c *server.Client, wk *worker, p *writerPlan, r int) int64 {
	next := p.rounds[r].firstIns
	var lastAck int64
	for _, m := range p.rounds[r].muts {
		if m.insert != nil {
			k := next
			next++
			var id core.NodeID
			err := wk.do("insert", kindCommit, true, func() (err error) {
				id, err = c.Insert(ctx, server.InsertLast, rootID, m.xml)
				return err
			})
			lastAck = wk.rec.now()
			if err == nil {
				p.ids[k] = id
				p.acked += int64(len(m.xml))
			}
		} else {
			id := p.ids[m.del]
			err := wk.do("delete", kindCommit, true, func() error { return c.Delete(ctx, id) })
			lastAck = wk.rec.now()
			if err == nil {
				p.dead[m.del] = true
			}
		}
	}
	return lastAck
}

func (w *durable) userBytes() (int64, int64) {
	acked := w.lp.bytes
	for _, p := range w.writers {
		acked += p.acked
	}
	return w.planned, acked
}

// live is the preloaded orders plus every acknowledged insert not deleted.
func (w *durable) live() docOrder {
	d := append(docOrder(nil), w.lp.orders...)
	for _, p := range w.writers {
		for k, o := range p.orders {
			if p.ids[k] != core.InvalidNode && !p.dead[k] {
				d = append(d, placed{o, p.ids[k]})
			}
		}
	}
	return d.sorted()
}

func (w *durable) check(ctx context.Context, e *env, t *tally) []error {
	errs := append([]error(nil), w.lastErr...)
	c := e.clients[0]
	inserted, deleted := 0, 0
	for _, p := range w.writers {
		for _, rb := range p.reads {
			k := rb.k
			if err := checkNode(docOrder{{p.orders[k], p.ids[k]}}, p.ids[k], rb.got); err != nil {
				errs = append(errs, fmt.Errorf("read-back: %w", err))
			}
		}
		for k, id := range p.ids {
			if id == core.InvalidNode {
				continue
			}
			inserted++
			got, err := c.ReadNode(ctx, id)
			if p.dead[k] {
				deleted++
				if !errors.Is(err, core.ErrNoSuchNode) {
					errs = append(errs, fmt.Errorf("deleted order %d: read gave %v, want ErrNoSuchNode", id, err))
				}
				continue
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("acknowledged order %d: %w", id, err))
				continue
			}
			if err := checkNode(docOrder{{p.orders[k], id}}, id, got); err != nil {
				errs = append(errs, err)
			}
		}
	}
	want := len(w.lp.orders) + inserted - deleted
	if got, err := c.Value(ctx, "count(//purchase-order)"); err != nil || got != fmt.Sprint(want) {
		errs = append(errs, fmt.Errorf("order count %q (%v), want %d = loaded %d + inserted %d - deleted %d", got, err, want, len(w.lp.orders), inserted, deleted))
	}
	if err := e.st.Verify(); err != nil {
		errs = append(errs, fmt.Errorf("Store.Verify: %w", err))
	}
	if err := e.fol.CatchUp(ctx); err != nil {
		errs = append(errs, fmt.Errorf("follower catch-up: %w", err))
	}
	if fl, pl := e.fol.Stats().AppliedLSN, e.st.Stats().ArchiveLSN; fl != pl {
		errs = append(errs, fmt.Errorf("follower applied LSN %d, primary archive LSN %d", fl, pl))
	}
	var fc int
	err := e.fol.Read(replica.ReadOptions{}, func(st *core.Store) (err error) {
		fc, err = xpath.QueryCountCtx(ctx, st, "//purchase-order")
		return err
	})
	if err != nil || fc != want {
		errs = append(errs, fmt.Errorf("follower order count %d (%v), want %d", fc, err, want))
	}
	return errs
}

func (w *durable) slots(t *tally) []slot {
	p50, tail := t.latSlots("wire durable commit (insert or delete)", "insert", "delete")
	return []slot{p50, tail,
		t.p50Slot("op2_p50_us", "wire read-back of an acknowledged insert", "readback"),
		{"op3_p50_us", "replica lag, last acknowledgement of a round to the follower serving it, wall p50", t.lag.p50(), len(t.lag)},
	}
}

// reopened reopens the closed primary and reads every acknowledged write.
func (w *durable) reopened(ctx context.Context, e *env, extra docOrder) []error {
	st, err := axml.ReopenFileWAL(e.primaryPath(), storeConfig(), e.archiveDir())
	if err != nil {
		return []error{fmt.Errorf("ReopenFileWAL: %w", err)}
	}
	defer st.Close()
	var errs []error
	for _, p := range w.writers {
		for k, id := range p.ids {
			if id == core.InvalidNode {
				continue
			}
			items, err := st.ReadNodeCtx(ctx, id)
			if p.dead[k] {
				if !errors.Is(err, core.ErrNoSuchNode) {
					errs = append(errs, fmt.Errorf("after reopen: deleted order %d: %v, want ErrNoSuchNode", id, err))
				}
				continue
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("after reopen: acknowledged order %d: %w", id, err))
				continue
			}
			if c, err := canonTokens(itemTokens(items)); err != nil || c != p.orders[k].expectNode(0) {
				errs = append(errs, fmt.Errorf("after reopen: order %d: %w (%v)", id, errMismatch, err))
			}
		}
	}
	want := len(w.live()) + len(extra)
	if n, err := xpath.QueryCountCtx(ctx, st, "//purchase-order"); err != nil || n != want {
		errs = append(errs, fmt.Errorf("after reopen: order count %d (%v), want %d", n, err, want))
	}
	return errs
}
