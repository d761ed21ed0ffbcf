package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dhc/internal/congest"
	"dhc/internal/graph"
	"dhc/internal/metrics"
)

// Transport names. Unix runs each shard as a goroutine worker behind a
// unix-domain socket (the frames cross the kernel, the memory does not); Proc
// forks one hcshard OS process per shard and ships the graph and program
// specs over the socket too.
const (
	TransportUnix = "unix"
	TransportProc = "proc"
)

// defaultStepTimeout bounds every coordinator-side receive. A healthy shard
// answers a STEP in milliseconds; a minute means the worker is gone.
const defaultStepTimeout = 60 * time.Second

// Options configures a Cluster.
type Options struct {
	// Shards is the worker count K >= 1 (clamped to the vertex count).
	Shards int
	// Transport is TransportUnix (default) or TransportProc.
	Transport string
	// StepTimeout bounds each protocol exchange; a shard that does not
	// answer within it is declared down (0 selects a 60s default). This is
	// what turns a hung worker into a classified error instead of a stalled
	// run.
	StepTimeout time.Duration
	// ShardBinary is the hcshard executable for TransportProc
	// ("hcshard" via PATH when empty).
	ShardBinary string
	// Fault, if non-nil, injects a worker failure (tests only).
	Fault *FaultPlan
}

// ShardStat is one worker's transport-level accounting for a completed run.
type ShardStat struct {
	Shard int `json:"shard"`
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	NodeN int `json:"nodes"`
	// BytesSent/BytesRecv count frame bytes from the coordinator's
	// perspective, headers included.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	// BusySeconds is time the worker spent inside Step/Deliver rather than
	// blocked on the round barrier (0 when the run ended before FINISH).
	BusySeconds float64 `json:"busy_seconds"`
	// RTTs counts coordinator->worker round trips on this link: one per
	// fused exchange plus one for the FINISH/FINAL collection.
	RTTs int64 `json:"rtts"`
	// LocalMsgs/CrossMsgs split the shard's routed messages: retained and
	// delivered inside the shard versus shipped through the coordinator.
	// Both are metered identically in the run's Counters.
	LocalMsgs int64 `json:"local_msgs"`
	CrossMsgs int64 `json:"cross_msgs"`
	// BatchBytesFixed/BatchBytesDelta compare encodings of the
	// coordinator->worker deliver payloads. BatchBytesFixed is what the
	// per-edge fixed-width reference encoding (a u32 count, then 10 bytes
	// plus 4 per argument for every edge's message) would have cost;
	// BatchBytesDelta is what the relayed per-destination record sections,
	// headers included, actually put on the wire, each flood carried once
	// per destination shard with its receivers delta-coded.
	BatchBytesFixed int64 `json:"batch_bytes_fixed"`
	BatchBytesDelta int64 `json:"batch_bytes_delta"`
}

// Cluster runs a bound network across shard workers. It implements
// congest.Runner, so an algorithm session's Run takes it in place of the
// in-process Network — Reset then RunContext — and the distributed run
// inherits the session's binding, extraction and error wrapping unchanged.
// A Cluster is reusable: workers live for one RunContext, so a Solver keeps
// one Cluster for all its trials. Not safe for concurrent use.
type Cluster struct {
	opts  Options
	g     *graph.Graph
	nodes []congest.Node
	net   congest.Options
	stats []ShardStat
}

var _ congest.Runner = (*Cluster)(nil)

// NewCluster validates the transport configuration once up front.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("dist: shard count %d must be >= 1", opts.Shards)
	}
	switch opts.Transport {
	case "", TransportUnix:
		opts.Transport = TransportUnix
	case TransportProc:
	default:
		return nil, fmt.Errorf("dist: unknown transport %q (valid: unix, proc)", opts.Transport)
	}
	if opts.StepTimeout == 0 {
		opts.StepTimeout = defaultStepTimeout
	}
	if opts.StepTimeout < 0 {
		return nil, fmt.Errorf("dist: step timeout %v must be >= 0", opts.StepTimeout)
	}
	return &Cluster{opts: opts}, nil
}

// Reset implements congest.Runner: it binds the cluster to a graph and
// program set. Workers are launched per run (RunContext), not per bind, so a
// failed run cannot leak its topology into the next one. It refuses the
// in-process test options FaultHook and DenseSweep rather than honour them
// on some transports and not others.
func (c *Cluster) Reset(g *graph.Graph, nodes []congest.Node, opts congest.Options) error {
	if len(nodes) != g.N() {
		return fmt.Errorf("dist: %d node programs for %d vertices", len(nodes), g.N())
	}
	if opts.FaultHook != nil {
		return fmt.Errorf("dist: FaultHook is not supported by sharded execution")
	}
	if opts.DenseSweep {
		return fmt.Errorf("dist: DenseSweep is not supported by sharded execution")
	}
	if c.opts.Transport == TransportProc {
		for v, nd := range nodes {
			if _, ok := nd.(congest.PortableProgram); !ok {
				return fmt.Errorf("dist: node %d program %T is not portable; transport %q requires congest.PortableProgram (use unix)",
					v, nd, TransportProc)
			}
		}
	}
	c.g, c.nodes, c.net = g, nodes, opts
	c.stats = nil
	return nil
}

// shardRange returns the contiguous near-equal partition bounds of shard i.
func shardRange(n, k, i int) (lo, hi int) { return i * n / k, (i + 1) * n / k }

// RunContext implements congest.Runner: launch the workers, drive the round
// loop, collect results, tear everything down. Any worker death, timeout or
// protocol violation surfaces as an ErrShardDown-wrapped error; ctx
// cancellation surfaces as ctx's error — never a hang, never a partial round
// observed by any node program.
func (c *Cluster) RunContext(ctx context.Context, seed uint64) (*metrics.Counters, error) {
	if c.g == nil {
		return nil, fmt.Errorf("dist: RunContext before Reset")
	}
	k := c.opts.Shards
	if k > c.g.N() {
		k = c.g.N()
	}

	// Both transports dial one unix-domain listener in a private directory.
	dir, err := os.MkdirTemp("", "dhc-dist-")
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "coord.sock")
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: addr, Net: "unix"})
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	defer ln.Close()

	var (
		wg      sync.WaitGroup
		unblock = make(chan struct{})
		procs   []*exec.Cmd
		conns   []net.Conn
	)
	if c.opts.Transport == TransportProc {
		procs, err = c.spawnProcs(k, addr)
	} else {
		conns, err = c.spawnWorkers(&wg, k, addr, unblock)
	}
	if err != nil {
		for _, conn := range conns {
			conn.Close()
		}
		close(unblock)
		wg.Wait()
		reapProcs(procs)
		return nil, err
	}

	links, err := c.accept(ln, k)

	// Teardown runs whatever happens next: close every conn (which unblocks
	// any worker stuck in a read or a full-buffer write), release injected
	// hangs, then join workers — goroutines via the WaitGroup (the
	// happens-before edge extraction relies on), processes via wait-or-kill.
	defer func() {
		for _, l := range links {
			if nc, ok := l.fc.rw.(net.Conn); ok {
				nc.Close()
			}
		}
		close(unblock)
		wg.Wait()
		reapProcs(procs)
	}()
	if err != nil {
		return nil, err
	}

	// Watchdog: a canceled context must interrupt a coordinator blocked in a
	// receive, not wait out the step timeout.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, l := range links {
				if nc, ok := l.fc.rw.(net.Conn); ok {
					nc.Close()
				}
			}
		case <-watchDone:
		}
	}()

	counters, runErr := newCoordinator(links, c.g.N(), c.net).run(ctx, seed)
	if runErr != nil {
		// Prefer the context's verdict when the transport error is just the
		// watchdog tearing down connections.
		if cerr := ctx.Err(); cerr != nil && errors.Is(runErr, ErrShardDown) {
			runErr = fmt.Errorf("congest: run canceled in round %d: %w", counters.Rounds, cerr)
		}
		for _, l := range links {
			l.abort()
		}
	}
	c.stats = make([]ShardStat, len(links))
	for i, l := range links {
		c.stats[i] = ShardStat{
			Shard: l.shard, Lo: l.lo, Hi: l.hi, NodeN: l.hi - l.lo,
			BytesSent: l.fc.bytesOut, BytesRecv: l.fc.bytesIn,
			BusySeconds:     time.Duration(l.busyNanos).Seconds(),
			RTTs:            l.rtts,
			LocalMsgs:       l.localMsgs,
			CrossMsgs:       l.crossMsgs,
			BatchBytesFixed: l.batchBytesFixed,
			BatchBytesDelta: l.batchBytesDelta,
		}
	}
	if runErr != nil {
		return counters, runErr
	}
	if c.opts.Transport == TransportProc {
		if err := c.restoreFinals(links); err != nil {
			return counters, err
		}
	}
	return counters, nil
}

// Stats returns the per-shard transport accounting of the last RunContext
// (nil before the first run).
func (c *Cluster) Stats() []ShardStat { return c.stats }

// spawnWorkers starts one goroutine worker per shard. Each dials the
// coordinator, identifies itself, builds its congest.Shard over the shared
// node slice, and serves frames until FINISH/ABORT or connection loss.
func (c *Cluster) spawnWorkers(wg *sync.WaitGroup, k int, addr string, unblock <-chan struct{}) ([]net.Conn, error) {
	n := c.g.N()
	conns := make([]net.Conn, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := shardRange(n, k, i)
		shard, err := congest.NewShard(c.g, c.nodes[lo:hi], c.net, lo, hi)
		if err != nil {
			return conns, err
		}
		conn, err := net.DialTimeout("unix", addr, c.opts.StepTimeout)
		if err != nil {
			return conns, fmt.Errorf("dist: shard %d dial: %w", i, err)
		}
		conns = append(conns, conn)
		var fault *FaultPlan
		if f := c.opts.Fault; f != nil && f.Shard == i {
			fault = f
		}
		wg.Add(1)
		go func(i int, conn net.Conn, shard *congest.Shard, fault *FaultPlan) {
			defer wg.Done()
			defer conn.Close()
			fc := newFrameConn(conn)
			var e enc
			e.u8(frameHello)
			e.u32(uint32(i))
			if err := fc.send(e.b); err != nil {
				return
			}
			_ = serveFrames(fc, shard, ServeOptions{Fault: fault, Unblock: unblock})
		}(i, conn, shard, fault)
	}
	return conns, nil
}

// spawnProcs forks one hcshard process per shard. Fault injection rides on
// the environment so the parent's test harness can point a worker at a crash
// or hang without any code path in the child knowing about tests.
func (c *Cluster) spawnProcs(k int, addr string) ([]*exec.Cmd, error) {
	bin := c.opts.ShardBinary
	if bin == "" {
		bin = "hcshard"
	}
	procs := make([]*exec.Cmd, 0, k)
	for i := 0; i < k; i++ {
		cmd := exec.Command(bin,
			"-socket", addr,
			"-shard", strconv.Itoa(i),
		)
		cmd.Stderr = os.Stderr
		if f := c.opts.Fault; f != nil && f.Shard == i {
			cmd.Env = append(os.Environ(),
				"HCSHARD_FAULT_ROUND="+strconv.FormatInt(f.Round, 10),
				"HCSHARD_FAULT_MODE="+f.Mode,
			)
		}
		if err := cmd.Start(); err != nil {
			reapProcs(procs)
			return procs, fmt.Errorf("dist: start %s: %w", bin, err)
		}
		procs = append(procs, cmd)
	}
	return procs, nil
}

// reapGrace is how long teardown waits, in total, for worker processes to
// exit on their own before killing the rest.
const reapGrace = 5 * time.Second

// reapProcs joins worker processes, killing those still running when one
// shared grace period ends (a hang-injected worker never exits on its own).
// Sharing the deadline makes K hung workers cost one grace period, not K.
func reapProcs(procs []*exec.Cmd) {
	deadline := time.Now().Add(reapGrace)
	for _, cmd := range procs {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(cmd *exec.Cmd) { _ = cmd.Wait(); close(done) }(cmd)
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			_ = cmd.Process.Kill()
			<-done
		}
	}
}

// accept collects k worker connections, reads each hello, and (for proc
// workers) ships the run configuration. It is all-or-nothing: on any error
// every accepted connection is closed and links is nil, so callers never see
// a half-connected cluster.
func (c *Cluster) accept(ln *net.UnixListener, k int) (links []*link, err error) {
	_ = ln.SetDeadline(time.Now().Add(c.opts.StepTimeout))
	defer func() {
		if err == nil {
			return
		}
		for _, l := range links {
			if l != nil {
				if nc, ok := l.fc.rw.(net.Conn); ok {
					nc.Close()
				}
			}
		}
		links = nil
	}()
	n := c.g.N()
	links = make([]*link, k)
	for got := 0; got < k; got++ {
		conn, aerr := ln.Accept()
		if aerr != nil {
			return links, fmt.Errorf("%w: accept (%d/%d workers connected): %v", ErrShardDown, got, k, aerr)
		}
		fc := newFrameConn(conn)
		fc.timeout = c.opts.StepTimeout
		payload, rerr := fc.recv()
		if rerr != nil {
			conn.Close()
			return links, fmt.Errorf("%w: hello: %v", ErrShardDown, rerr)
		}
		d := dec{b: payload}
		tag := d.u8()
		idx := int(d.u32())
		if d.err != nil || tag != frameHello || idx < 0 || idx >= k || links[idx] != nil {
			conn.Close()
			return links, fmt.Errorf("%w: bad hello (tag %d shard %d)", ErrShardDown, tag, idx)
		}
		lo, hi := shardRange(n, k, idx)
		links[idx] = &link{shard: idx, lo: lo, hi: hi, fc: fc}
	}
	if c.opts.Transport == TransportProc {
		for _, l := range links {
			if cerr := c.sendConfig(l); cerr != nil {
				return links, cerr
			}
		}
	}
	return links, nil
}
