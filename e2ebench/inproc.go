package main

// The traced run's in-process pass and the per-layer figures. After the
// timed phase, a fixed sample of every operation class runs on the warmed
// store through the same public functions the server's handler calls, so
// each layer's own time and allocation show without the wire around them.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// Sample sizes of the in-process pass.
const (
	ipReads     = 200
	ipFallbacks = 1 // per fallback shape
	ipXQueries  = 2
	ipInserts   = 20
)

type inprocResult struct {
	read, pushdown, fallback, xquery, insert, flush, catchup durs
	fallbackAlloc, xqueryAlloc                               []float64
	ops, commits, queries                                    int64
	inserted                                                 docOrder
	errs                                                     []error
}

func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// inproc runs the sample on e's store. live is the store's orders in
// document order, from which every expected answer is computed.
func inproc(ctx context.Context, e *env, live docOrder, seed int64) (*inprocResult, error) {
	ip := &inprocResult{}
	w := newWorker(e.rec)
	timed := func(class string, kind int, into *durs, fn func() error) error {
		err := w.do(class, kind, false, fn)
		ip.ops++
		if err == nil {
			c := w.classes[class]
			*into = append(*into, c.lat[len(c.lat)-1])
		}
		return err
	}

	for i := 0; i < ipReads; i++ {
		p := live[(i*7919)%len(live)]
		k := i % p.o.nodes()
		id := p.first + core.NodeID(k)
		var items []core.Item
		if err := timed("inproc.read", kindRead, &ip.read, func() (err error) {
			items, err = e.st.ReadNodeCtx(ctx, id)
			return err
		}); err != nil {
			return nil, fmt.Errorf("read %d: %w", id, err)
		}
		if got, err := canonTokens(itemTokens(items)); err != nil || got != p.o.expectNode(k) {
			ip.errs = append(ip.errs, fmt.Errorf("in-process read %d: %w (%v)", id, errMismatch, err))
		}
	}

	for _, sh := range pickShapes(workload.New(seed), live) {
		n := 1
		var into *durs
		switch sh.class {
		case classPushdown:
			into = &ip.pushdown
		case classFallback:
			into, n = &ip.fallback, ipFallbacks
		default:
			into, n = &ip.xquery, ipXQueries
		}
		for i := 0; i < n; i++ {
			a0 := allocBytes()
			var a answer
			var ids []core.NodeID
			err := timed("inproc."+sh.class, kindQuery, into, func() (err error) {
				if sh.flwor {
					a.toks, err = xquery.EvalStoreCtx(ctx, e.st, sh.expr)
				} else {
					ids, err = xpath.QueryIDsCtx(ctx, e.st, sh.expr)
				}
				return err
			})
			alloc := float64(allocBytes() - a0)
			ip.queries++
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sh.expr, err)
			}
			switch sh.class {
			case classFallback:
				ip.fallbackAlloc = append(ip.fallbackAlloc, alloc)
			case classXQuery:
				ip.xqueryAlloc = append(ip.xqueryAlloc, alloc)
			}
			if sh.flwor {
				if err := checkAnswer(sh, a, live); err != nil {
					ip.errs = append(ip.errs, fmt.Errorf("in-process: %w", err))
				}
				continue
			}
			var want []core.NodeID
			for _, r := range sh.expect(live) {
				want = append(want, r.id)
			}
			if !slices.Equal(ids, want) {
				ip.errs = append(ip.errs, fmt.Errorf("in-process %s: %w: ids %v, want %v", sh.expr, errMismatch, ids, want))
			}
		}
	}

	g := workload.New(seed ^ 0x5eed)
	for i := 0; i < ipInserts; i++ {
		toks := g.PurchaseOrder(9000000 + i)
		o, err := decodeOrder(toks)
		if err != nil {
			return nil, err
		}
		var id core.NodeID
		if err := timed("inproc.insert", kindCommit, &ip.insert, func() (err error) {
			id, err = e.st.InsertIntoLastCtx(ctx, rootID, toks)
			return err
		}); err != nil {
			return nil, fmt.Errorf("insert: %w", err)
		}
		if err := timed("inproc.flush", kindCommit, &ip.flush, e.st.Flush); err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		ip.ops-- // an insert and its flush are one commit
		ip.commits++
		ip.inserted = append(ip.inserted, placed{o, id})
	}
	if err := timed("inproc.catchup", kindReplica, &ip.catchup, func() error { return e.fol.CatchUp(ctx) }); err != nil {
		return nil, fmt.Errorf("follower catch-up: %w", err)
	}
	return ip, nil
}

// joinServerSpans pairs each timed wire call with the server's side of its
// request (the n-th request on the connection after the timed phase began)
// and records the server spans under the client spans.
func joinServerSpans(e *env, t *tally, wb window) (handle, transport durs) {
	ci := 0
	for _, c := range e.ln.snapshot() {
		if c.replica {
			continue
		}
		if ci >= len(t.wireOps) {
			break
		}
		byIdx := make(map[int]connSpan)
		for _, s := range c.spans() {
			byIdx[s.idx] = s
		}
		for i, op := range t.wireOps[ci] {
			s, ok := byIdx[wb.requests[ci]+i]
			if !ok {
				continue
			}
			e.rec.add(op.id, "server.request", s.start, s.end)
			handle = append(handle, time.Duration(s.end-s.start))
			transport = append(transport, time.Duration((op.end-op.start)-(s.end-s.start)))
		}
		ci++
	}
	return handle, transport
}

// perLayer computes the traced run's figures. Counter deltas cover the
// timed phase (wb..wa) and the in-process pass (wi0..wi1); the checks in
// between are left out.
func perLayer(t *tally, ip *inprocResult, handle, transport durs, wb, wa, wi0, wi1 window) map[string]metric {
	d := wa.sub(wb).add(wi1.sub(wi0))
	attempted, _ := t.totals()
	ops := float64(attempted + ip.ops)
	commits := float64(t.done(kindCommit) + ip.commits)
	var wireOps int
	for _, w := range t.wireOps {
		wireOps += len(w)
	}
	queries := float64(t.done(kindQuery) + ip.queries)
	catchups := append(t.lat("catchup"), ip.catchup...)
	var catchNs float64
	for _, c := range catchups {
		catchNs += float64(c)
	}
	segs := float64(d.segments)
	fsyncs := float64(d.log.syncs + d.seg.syncs + d.page.syncs)
	syncNs := float64(d.log.syncNs + d.seg.syncNs + d.page.syncNs)
	us := func(v float64) metric { return metric{v, "us"} }
	cnt := func(v float64) metric { return metric{v, "count"} }
	rat := func(v float64) metric { return metric{v, "ratio"} }
	byt := func(v float64) metric { return metric{v, "bytes"} }
	return map[string]metric{
		"server.handle_us":                      us(handle.p50()),
		"server.transport_us":                   us(transport.p50()),
		"server.wire_bytes_per_op":              byt(ratio(float64(wa.wire-wb.wire), float64(wireOps))),
		"core.read_us":                          us(ip.read.p50()),
		"core.tokens_scanned_per_read":          cnt(ratio(float64(d.tokensScanned), float64(d.nodeLookups))),
		"core.partial_hit_ratio":                rat(ratio(float64(d.partialHits), float64(d.partialHits+d.partialMisses))),
		"core.partial_invalidations_per_commit": cnt(ratio(float64(d.partialInvalidations), commits)),
		"core.insert_us":                        us(ip.insert.p50()),
		"core.splits_per_commit":                cnt(ratio(float64(d.splits), commits)),
		"pagestore.pool_hit_ratio":              rat(ratio(float64(d.poolHits), float64(d.poolHits+d.poolMisses))),
		"pagestore.pool_evictions_per_op":       cnt(ratio(float64(d.poolEvictions), ops)),
		"pagestore.page_reads_per_op":           cnt(ratio(float64(d.page.reads), ops)),
		"wal.flush_us":                          us(ip.flush.p50()),
		"wal.fsyncs_per_commit":                 cnt(ratio(fsyncs, commits)),
		"wal.sync_us_per_commit":                us(ratio(syncNs/1e3, commits)),
		"wal.log_bytes_per_commit":              byt(ratio(float64(d.log.writeBytes), commits)),
		"wal.archive_bytes_per_commit":          byt(ratio(float64(d.seg.writeBytes), commits)),
		"wal.page_write_bytes_per_commit":       byt(ratio(float64(d.page.writeBytes), commits)),
		"wal.lsns_per_commit":                   cnt(ratio(float64(d.archiveLSN), commits)),
		"replica.catchup_us_per_segment":        us(ratio(catchNs/1e3, segs)),
		"replica.fsyncs_per_segment":            cnt(ratio(float64(d.rep.syncs), segs)),
		"replica.fetch_bytes_per_segment":       byt(ratio(float64(d.toReplica), segs)),
		"xpath.pushdown_us":                     us(ip.pushdown.p50()),
		"xpath.plan_cache_hit_ratio":            rat(ratio(float64(d.planHits), float64(d.planHits+d.planMisses))),
		"xpath.fallback_us":                     us(ip.fallback.p50()),
		"xpath.fallback_alloc_bytes":            byt(median(ip.fallbackAlloc)),
		"xpath.fallback_queries_per_query":      cnt(ratio(float64(d.fallbackQueries), queries)),
		"xquery.eval_us":                        us(ip.xquery.p50()),
		"xquery.alloc_bytes":                    byt(median(ip.xqueryAlloc)),
	}
}

// delta is the change of the counters between two windows.
type delta struct {
	tokensScanned, nodeLookups            uint64
	partialHits, partialMisses            uint64
	partialInvalidations, splits          uint64
	poolHits, poolMisses, poolEvictions   uint64
	planHits, planMisses, fallbackQueries uint64
	archiveLSN, segments                  uint64
	log, seg, page, rep                   ioSnap
	toReplica                             int64
}

func (a window) sub(b window) delta {
	s, o := a.stats, b.stats
	return delta{
		tokensScanned: s.TokensScanned - o.TokensScanned, nodeLookups: s.NodeLookups - o.NodeLookups,
		partialHits: s.PartialHits - o.PartialHits, partialMisses: s.PartialMisses - o.PartialMisses,
		partialInvalidations: s.PartialInvalidations - o.PartialInvalidations, splits: s.Splits - o.Splits,
		poolHits: s.Pool.Hits - o.Pool.Hits, poolMisses: s.Pool.Misses - o.Pool.Misses, poolEvictions: s.Pool.Evictions - o.Pool.Evictions,
		planHits: s.PlanCacheHits - o.PlanCacheHits, planMisses: s.PlanCacheMisses - o.PlanCacheMisses,
		fallbackQueries: s.FallbackQueries - o.FallbackQueries,
		archiveLSN:      s.ArchiveLSN - o.ArchiveLSN, segments: a.fol.SegmentsApplied - b.fol.SegmentsApplied,
		log: a.log.sub(b.log), seg: a.seg.sub(b.seg), page: a.page.sub(b.page), rep: a.rep.sub(b.rep),
		toReplica: a.toReplica - b.toReplica,
	}
}

func (a delta) add(b delta) delta {
	addIO := func(x, y ioSnap) ioSnap {
		return ioSnap{x.writeBytes + y.writeBytes, x.reads + y.reads, x.syncs + y.syncs, x.syncNs + y.syncNs}
	}
	return delta{
		tokensScanned: a.tokensScanned + b.tokensScanned, nodeLookups: a.nodeLookups + b.nodeLookups,
		partialHits: a.partialHits + b.partialHits, partialMisses: a.partialMisses + b.partialMisses,
		partialInvalidations: a.partialInvalidations + b.partialInvalidations, splits: a.splits + b.splits,
		poolHits: a.poolHits + b.poolHits, poolMisses: a.poolMisses + b.poolMisses, poolEvictions: a.poolEvictions + b.poolEvictions,
		planHits: a.planHits + b.planHits, planMisses: a.planMisses + b.planMisses,
		fallbackQueries: a.fallbackQueries + b.fallbackQueries,
		archiveLSN:      a.archiveLSN + b.archiveLSN, segments: a.segments + b.segments,
		log: addIO(a.log, b.log), seg: addIO(a.seg, b.seg), page: addIO(a.page, b.page), rep: addIO(a.rep, b.rep),
		toReplica: a.toReplica + b.toReplica,
	}
}
