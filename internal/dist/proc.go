package dist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"

	"dhc/internal/congest"
	"dhc/internal/core"
	"dhc/internal/dra"
	"dhc/internal/graph"
)

// sendConfig ships a proc worker everything it needs to reconstruct its
// shard: the graph (edge-list text), the shard range, the network options
// that cross a process boundary, and the program spec. Program specs are
// uniform across a run's nodes (sessions bind every vertex with the same
// options), so one spec — taken from the shard's first vertex — reconstructs
// the whole range.
func (c *Cluster) sendConfig(l *link) error {
	spec := c.nodes[l.lo].(congest.PortableProgram).DistSpec()
	var gbuf bytes.Buffer
	if err := c.g.WriteEdgeList(&gbuf); err != nil {
		return fmt.Errorf("dist: encode graph: %w", err)
	}
	l.enc.b = l.enc.b[:0]
	l.enc.u8(frameConfig)
	l.enc.u32(uint32(l.lo))
	l.enc.u32(uint32(l.hi))
	l.enc.i64(c.net.BandwidthBits)
	l.enc.i64(c.net.MaxRounds)
	l.enc.str(spec.Algo)
	l.enc.i32(spec.NumColors)
	l.enc.i64(spec.B)
	l.enc.i64(spec.MaxSteps)
	l.enc.bytes(gbuf.Bytes())
	if err := l.fc.send(l.enc.b); err != nil {
		return l.down("config", err)
	}
	return nil
}

// restoreFinals replays each worker process's terminal program states into
// the driver's own program structs, so result extraction runs on the parent
// side exactly as it does after an in-process run.
func (c *Cluster) restoreFinals(links []*link) error {
	for _, l := range links {
		rest := l.final
		for v := l.lo; v < l.hi; v++ {
			var err error
			rest, err = c.nodes[v].(congest.PortableProgram).RestoreFinal(rest)
			if err != nil {
				return fmt.Errorf("dist: shard %d final state, node %d: %w", l.shard, v, err)
			}
		}
		if len(rest) != 0 {
			return fmt.Errorf("dist: shard %d final state has %d trailing bytes", l.shard, len(rest))
		}
	}
	return nil
}

// BuildPrograms reconstructs the node programs of vertices [lo, hi) from a
// portable spec — the worker-process half of sendConfig. Only algorithms
// whose programs implement congest.PortableProgram are reachable here.
func BuildPrograms(spec congest.ProgramSpec, lo, hi int) ([]congest.Node, error) {
	nodes := make([]congest.Node, hi-lo)
	switch spec.Algo {
	case "dra":
		for i := range nodes {
			nodes[i] = dra.NewNode(dra.NodeOptions{MaxSteps: spec.MaxSteps}, spec.B)
		}
	case "dhc2":
		for i := range nodes {
			nodes[i] = core.NewDHC2Node(spec)
		}
	default:
		return nil, fmt.Errorf("dist: no portable program for algorithm %q", spec.Algo)
	}
	return nodes, nil
}

// FaultFromEnv reads the HCSHARD_FAULT_ROUND / HCSHARD_FAULT_MODE injection
// a test harness plants in a worker process's environment (nil when absent).
func FaultFromEnv() *FaultPlan {
	mode := os.Getenv("HCSHARD_FAULT_MODE")
	if mode == "" {
		return nil
	}
	round, err := strconv.ParseInt(os.Getenv("HCSHARD_FAULT_ROUND"), 10, 64)
	if err != nil {
		round = 0
	}
	return &FaultPlan{Round: round, Mode: mode}
}

// RunWorker is the hcshard process body: dial already done by the caller, it
// performs the hello/config handshake, rebuilds the shard, and serves frames
// until the coordinator finishes or the connection dies.
func RunWorker(conn net.Conn, shardIdx int, fault *FaultPlan) error {
	fc := newFrameConn(conn)
	var e enc
	e.u8(frameHello)
	e.u32(uint32(shardIdx))
	if err := fc.send(e.b); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	payload, err := fc.recv()
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	d := dec{b: payload}
	if tag := d.u8(); tag != frameConfig {
		return fmt.Errorf("config: unexpected frame %d", tag)
	}
	lo := int(d.u32())
	hi := int(d.u32())
	opts := congest.Options{
		BandwidthBits: d.i64(),
		MaxRounds:     d.i64(),
	}
	spec := congest.ProgramSpec{
		Algo:      d.str(),
		NumColors: d.i32(),
		B:         d.i64(),
		MaxSteps:  d.i64(),
	}
	gtext := d.lenPrefixed()
	if d.err != nil {
		return fmt.Errorf("config: %w", d.err)
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(gtext))
	if err != nil {
		return fmt.Errorf("config graph: %w", err)
	}
	if lo < 0 || hi > g.N() || lo >= hi {
		return fmt.Errorf("config range [%d,%d) invalid for %d vertices", lo, hi, g.N())
	}
	progs, err := BuildPrograms(spec, lo, hi)
	if err != nil {
		return err
	}
	shard, err := congest.NewShard(g, progs, opts, lo, hi)
	if err != nil {
		return err
	}
	return serveFrames(fc, shard, ServeOptions{
		Fault: fault,
		FinalState: func() []byte {
			var out []byte
			for _, p := range progs {
				out = p.(congest.PortableProgram).AppendFinal(out)
			}
			return out
		},
	})
}
