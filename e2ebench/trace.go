package main

// Measurement from outside the program: every layer is timed and counted
// by wrapping the public hooks it exposes (the WAL's WrapLog, WrapSegment
// and WrapPager, the follower's Wrap, and the server's net.Listener). The
// byte and fsync counters run in every run; spans are kept only when the
// run is traced.

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pagestore"
	"repro/internal/wal"
)

// span is one timed call. Parent is the root span of the operation that
// caused it (a client call, a follower catch-up or an in-process call), or
// 0 when that is unknown. The name is an index into the recorder's names,
// so a run's spans hold no pointers for the collector to scan.
type span struct {
	id, parent uint64
	start, end int64
	bytes      int32
	name       uint16
}

// recorder owns the spans of one run and the set of root operations in
// flight, so that a file call can be attributed to the one request that
// caused it when only one is running.
type recorder struct {
	on     atomic.Bool
	t0     time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	names  []string
	index  map[string]uint16
	active map[uint64]struct{}
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), index: make(map[string]uint16), active: make(map[uint64]struct{})}
}

// nameLocked interns a span name.
func (r *recorder) nameLocked(name string) uint16 {
	n, ok := r.index[name]
	if !ok {
		n = uint16(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = n
	}
	return n
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a root operation and returns its span id (0 when untraced).
func (r *recorder) begin() uint64 {
	if !r.on.Load() {
		return 0
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.active[id] = struct{}{}
	r.mu.Unlock()
	return id
}

// end closes a root operation opened by begin.
func (r *recorder) end(id uint64, name string, start, end int64) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	delete(r.active, id)
	r.spans = append(r.spans, span{id: id, name: r.nameLocked(name), start: start, end: end})
	r.mu.Unlock()
}

// child records a span under the single root operation in flight, or
// under none (parent 0) when several or none are running.
func (r *recorder) child(name string, start, end int64, bytes int) {
	if !r.on.Load() {
		return
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	var parent uint64
	if len(r.active) == 1 {
		for p := range r.active {
			parent = p
		}
	}
	r.spans = append(r.spans, span{id: id, parent: parent, name: r.nameLocked(name), start: start, end: end, bytes: int32(bytes)})
	r.mu.Unlock()
}

// add records a finished span under parent (server sides joined after the
// run).
func (r *recorder) add(parent uint64, name string, start, end int64) {
	if !r.on.Load() {
		return
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, parent: parent, name: r.nameLocked(name), start: start, end: end})
	r.mu.Unlock()
}

// writeJSON writes every span as one JSON array of
// {"id", "parent", "name", "start_ns", "end_ns", "bytes"} objects.
func (r *recorder) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	r.mu.Lock()
	quoted := make([]string, len(r.names))
	for i, n := range r.names {
		quoted[i] = strconv.Quote(n)
	}
	w.WriteString("[")
	var b []byte
	for i, s := range r.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"name":`...)
		b = append(b, quoted[s.name]...)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, int64(s.bytes), 10)
		b = append(b, '}')
		w.Write(b)
	}
	r.mu.Unlock()
	w.WriteString("]\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ioCount accumulates one file class's writes, reads and fsyncs.
type ioCount struct {
	writeBytes atomic.Int64
	reads      atomic.Int64
	syncs      atomic.Int64
	syncNs     atomic.Int64
}

type ioSnap struct{ writeBytes, reads, syncs, syncNs int64 }

func (c *ioCount) snap() ioSnap {
	return ioSnap{c.writeBytes.Load(), c.reads.Load(), c.syncs.Load(), c.syncNs.Load()}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{a.writeBytes - b.writeBytes, a.reads - b.reads, a.syncs - b.syncs, a.syncNs - b.syncNs}
}

// ioCounters covers every file the primary and the follower write.
type ioCounters struct {
	log, segment, page, replica ioCount
}

// syncNs is the time spent in fsync on every counted file.
func (c *ioCounters) syncNs() int64 {
	return c.log.syncNs.Load() + c.segment.syncNs.Load() + c.page.syncNs.Load() + c.replica.syncNs.Load()
}

// countedFile wraps a WAL log, archive segment or follower file.
type countedFile struct {
	wal.File
	c                          *ioCount
	rec                        *recorder
	write, sync, trunc, closed string // span names
}

func (f *countedFile) WriteAt(p []byte, off int64) (int, error) {
	t := f.rec.now()
	n, err := f.File.WriteAt(p, off)
	f.c.writeBytes.Add(int64(n))
	f.rec.child(f.write, t, f.rec.now(), n)
	return n, err
}

func (f *countedFile) Sync() error {
	t := f.rec.now()
	err := f.File.Sync()
	e := f.rec.now()
	f.c.syncs.Add(1)
	f.c.syncNs.Add(e - t)
	f.rec.child(f.sync, t, e, 0)
	return err
}

func (f *countedFile) Truncate(size int64) error {
	t := f.rec.now()
	err := f.File.Truncate(size)
	f.rec.child(f.trunc, t, f.rec.now(), 0)
	return err
}

func (f *countedFile) Close() error {
	t := f.rec.now()
	err := f.File.Close()
	f.rec.child(f.closed, t, f.rec.now(), 0)
	return err
}

func wrapFile(c *ioCount, rec *recorder, name string) func(wal.File) wal.File {
	return func(f wal.File) wal.File {
		return &countedFile{File: f, c: c, rec: rec,
			write: name + ".write", sync: name + ".sync", trunc: name + ".truncate", closed: name + ".close"}
	}
}

// countedPager wraps the page file below the WAL.
type countedPager struct {
	wal.InnerPager
	c   *ioCount
	rec *recorder
}

func (p *countedPager) ReadPage(id pagestore.PageID, buf []byte) error {
	t := p.rec.now()
	err := p.InnerPager.ReadPage(id, buf)
	p.c.reads.Add(1)
	p.rec.child("pagestore.read", t, p.rec.now(), len(buf))
	return err
}

func (p *countedPager) WritePage(id pagestore.PageID, buf []byte) error {
	t := p.rec.now()
	err := p.InnerPager.WritePage(id, buf)
	p.c.writeBytes.Add(int64(len(buf)))
	p.rec.child("pagestore.write", t, p.rec.now(), len(buf))
	return err
}

func (p *countedPager) Sync() error {
	t := p.rec.now()
	err := p.InnerPager.Sync()
	e := p.rec.now()
	p.c.syncs.Add(1)
	p.c.syncNs.Add(e - t)
	p.rec.child("pagestore.sync", t, e, 0)
	return err
}

// MaxPageID forwards the inner pager's extent, which backup and scrub use.
func (p *countedPager) MaxPageID() pagestore.PageID {
	if m, ok := p.InnerPager.(interface{ MaxPageID() pagestore.PageID }); ok {
		return m.MaxPageID()
	}
	return pagestore.InvalidPage
}

// connSpan is the server side of request idx on one connection: from the
// first request byte read to the last response byte written.
type connSpan struct {
	idx        int
	start, end int64
}

// tracedConn is the server side of one accepted connection.
type tracedConn struct {
	net.Conn
	rec *recorder

	readBytes, writeBytes atomic.Int64

	mu      sync.Mutex
	n       int // requests begun
	inReq   bool
	wrote   bool
	start   int64
	last    int64
	done    []connSpan // kept while the recorder is on
	replica bool       // accepted after the benchmark's clients: a follower's transport
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.readBytes.Add(int64(n))
		t := c.rec.now()
		c.mu.Lock()
		if c.inReq && c.wrote {
			c.closeLocked()
		}
		if !c.inReq {
			c.inReq, c.wrote, c.start = true, false, t
			c.n++
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writeBytes.Add(int64(n))
	t := c.rec.now()
	c.mu.Lock()
	c.wrote, c.last = true, t
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) closeLocked() {
	if c.rec.on.Load() {
		c.done = append(c.done, connSpan{c.n - 1, c.start, c.last})
		if c.replica {
			c.rec.child("server.replica_request", c.start, c.last, 0)
		}
	}
	c.inReq = false
}

// settle closes a request whose response has been written and returns
// how many requests the connection has begun. Called between client calls,
// when every begun request has been answered.
func (c *tracedConn) settle() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inReq && c.wrote {
		c.closeLocked()
	}
	return c.n
}

func (c *tracedConn) spans() []connSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]connSpan(nil), c.done...)
}

// tracedListener wraps every accepted connection. The first nClients
// connections are the benchmark's clients (they are dialled, one at a
// time, before anything else connects); later ones are follower
// transports.
type tracedListener struct {
	net.Listener
	rec      *recorder
	nClients int

	mu    sync.Mutex
	conns []*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	tc := &tracedConn{Conn: nc, rec: l.rec, replica: len(l.conns) >= l.nClients}
	l.conns = append(l.conns, tc)
	return tc, nil
}

func (l *tracedListener) snapshot() []*tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tracedConn(nil), l.conns...)
}

// wireBytes sums the bytes read and written on client connections and the
// bytes sent to follower transports.
func (l *tracedListener) wireBytes() (client, toReplica int64) {
	for _, c := range l.snapshot() {
		if c.replica {
			toReplica += c.writeBytes.Load()
		} else {
			client += c.readBytes.Load() + c.writeBytes.Load()
		}
	}
	return client, toReplica
}
