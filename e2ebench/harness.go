package main

// The system under test, set up as cmd/axmlserved sets up a primary by
// default: a WAL-backed, file-backed RangePartial store that archives
// every commit as a segment, served over the wire protocol on a loopback
// listener. A follower bootstrapped from a roll-forward backup tails it
// through the wire transport; it applies only when the benchmark calls
// CatchUp.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

const (
	pageSize  = 8192
	opTimeout = 10 * time.Second // axmlserved's -op-timeout default
)

// storeConfig is axmlserved's default store configuration.
func storeConfig() core.Config {
	return core.Config{Mode: core.RangePartial, OpTimeout: opTimeout}
}

type env struct {
	dir     string
	rec     *recorder
	io      *ioCounters
	st      *core.Store
	srv     *server.Server
	ln      *tracedListener
	served  chan error
	clients []*server.Client
	fol     *replica.Follower
	root    core.NodeID
}

func (e *env) primaryPath() string { return filepath.Join(e.dir, "primary.db") }
func (e *env) archiveDir() string  { return filepath.Join(e.dir, "archive") }

// openPrimary opens the journaled store with the counting wrappers.
func openPrimary(path, archive string, rec *recorder, io *ioCounters) (*core.Store, error) {
	wp, err := wal.OpenWithOptions(path, pageSize, wal.Options{
		ArchiveDir:  archive,
		WrapLog:     wrapFile(&io.log, rec, "wal.log"),
		WrapSegment: wrapFile(&io.segment, rec, "wal.segment"),
		WrapPager: func(p wal.InnerPager) wal.InnerPager {
			return &countedPager{InnerPager: p, c: &io.page, rec: rec}
		},
	})
	if err != nil {
		return nil, err
	}
	cfg := storeConfig()
	cfg.Pager = wp
	st, err := core.Open(cfg)
	if err != nil {
		wp.Close()
		return nil, err
	}
	return st, nil
}

// startEnv creates the store under cfg.dir, starts the server, dials
// nClients sessions, loads lp through the first session and bootstraps the
// follower.
func startEnv(ctx context.Context, cfg config, rec *recorder, nClients int, lp *loadPlan) (e *env, err error) {
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	e = &env{dir: dir, rec: rec, io: &ioCounters{}}
	defer func() {
		if err != nil {
			e.close(true)
			e = nil
		}
	}()
	if e.st, err = openPrimary(e.primaryPath(), e.archiveDir(), rec, e.io); err != nil {
		return e, err
	}
	e.srv, err = server.New(server.Options{Store: e.st, ArchiveDir: e.archiveDir()})
	if err != nil {
		return e, err
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.ln = &tracedListener{Listener: inner, rec: rec, nClients: nClients}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(e.ln) }()
	addr := inner.Addr().String()
	for i := 0; i < nClients; i++ {
		c, err := server.Dial(addr, server.ClientOptions{})
		if err != nil {
			return e, fmt.Errorf("dial client %d: %w", i, err)
		}
		e.clients = append(e.clients, c)
	}

	c := e.clients[0]
	if e.root, err = c.Load(ctx, lp.first); err != nil {
		return e, fmt.Errorf("load root batch: %w", err)
	}
	if e.root != rootID {
		return e, fmt.Errorf("root element got id %d, want %d", e.root, rootID)
	}
	for i, b := range lp.batches {
		id, err := c.Insert(ctx, server.InsertLast, e.root, b)
		if err != nil {
			return e, fmt.Errorf("load batch %d: %w", i+1, err)
		}
		if want := lp.orders[lp.starts[i]].first; id != want {
			return e, fmt.Errorf("load batch %d: first order got id %d, want %d (dense document-order numbering)", i+1, id, want)
		}
	}

	base := filepath.Join(dir, "base.db")
	if _, err := e.st.BackupTo(base); err != nil {
		return e, fmt.Errorf("backup for follower: %w", err)
	}
	e.fol, err = replica.Open(filepath.Join(dir, "replica.db"), server.NewNetTransport(addr, server.NetTransportOptions{}),
		replica.Options{Store: storeConfig(), Base: base, Wrap: wrapFile(&e.io.replica, rec, "replica.file")})
	if err != nil {
		return e, fmt.Errorf("open follower: %w", err)
	}
	// The first catch-up dials the transport, so no round pays for it.
	if err := e.fol.CatchUp(ctx); err != nil {
		return e, fmt.Errorf("follower first catch-up: %w", err)
	}
	return e, nil
}

// close stops everything the environment started, and removes its files
// when remove is set.
func (e *env) close(remove bool) error {
	var errs []error
	if e.fol != nil {
		errs = append(errs, e.fol.Close())
	}
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.srv.Shutdown(ctx))
		cancel()
		if e.served != nil {
			if err := <-e.served; err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, err)
			}
		}
	} else if e.ln != nil {
		e.ln.Close()
	}
	if e.st != nil {
		if err := e.st.Close(); err != nil && !errors.Is(err, core.ErrClosed) {
			errs = append(errs, err)
		}
	}
	e.fol, e.srv, e.st, e.clients = nil, nil, nil, nil
	if remove {
		errs = append(errs, e.removeFiles())
	}
	return errors.Join(errs...)
}

func (e *env) removeFiles() error { return os.RemoveAll(e.dir) }

// storeBytes is the size of the primary's files: page file, log and
// archive.
func (e *env) storeBytes() (int64, error) {
	var n int64
	for _, p := range []string{e.primaryPath(), e.primaryPath() + ".wal"} {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	_, ab, err := wal.ArchiveUsage(e.archiveDir())
	return n + ab, err
}

// writtenBytes is every byte the primary wrote to log, archive and page
// file since it was created.
func (e *env) writtenBytes() int64 {
	return e.io.log.writeBytes.Load() + e.io.segment.writeBytes.Load() + e.io.page.writeBytes.Load()
}

// window is the state read before and after a measured phase.
type window struct {
	at        time.Time
	cpu       time.Duration
	stats     core.Stats
	fol       replica.Stats
	log, seg  ioSnap
	page, rep ioSnap
	wire      int64
	toReplica int64
	requests  []int // begun requests per client connection
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) snap() window {
	w := window{
		at: time.Now(), cpu: cpuTime(), stats: e.st.Stats(), fol: e.fol.Stats(),
		log: e.io.log.snap(), seg: e.io.segment.snap(), page: e.io.page.snap(), rep: e.io.replica.snap(),
	}
	w.wire, w.toReplica = e.ln.wireBytes()
	for _, c := range e.ln.snapshot() {
		if !c.replica {
			w.requests = append(w.requests, c.settle())
		}
	}
	return w
}

// heapPeak samples the Go heap in use while a phase runs and keeps the
// highest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

// heapSampleEvery is the sampling period.
const heapSampleEvery = 2 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			h.peak = max(h.peak, heapInUse())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in bytes.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return max(h.peak, heapInUse())
}
