package core

import (
	"encoding/binary"
	"fmt"

	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
)

// NewDHC2Node constructs one vertex's DHC2 program from a portable spec — the
// reconstruction entry point worker processes use. The spec must carry the
// resolved values (NumColors after clamping, B after defaultB's floor),
// which DHC2Session's Bind computes.
func NewDHC2Node(spec congest.ProgramSpec) congest.Node {
	return &dhc2Node{cfg: phase1Config{NumColors: spec.NumColors, B: spec.B, MergeLevels: numMergeLevels(spec.NumColors)}}
}

var _ congest.PortableProgram = (*dhc2Node)(nil)

// DistSpec implements congest.PortableProgram.
func (d *dhc2Node) DistSpec() congest.ProgramSpec {
	return congest.ProgramSpec{Algo: "dhc2", NumColors: d.cfg.NumColors, B: d.cfg.B}
}

// AppendFinal implements congest.PortableProgram: exactly the fields DHC2's
// result extraction reads — the partition DRA's terminal status and total
// step count, the Phase 1 color and barrier-release round, and the merged
// cycle successor.
func (d *dhc2Node) AppendFinal(dst []byte) []byte {
	var status byte // 0 = no DRA session ever started
	var steps int64
	if d.p1.dra != nil {
		status = byte(d.p1.dra.Status())
		steps = d.p1.dra.Steps()
	}
	dst = append(dst, status)
	dst = binary.BigEndian.AppendUint64(dst, uint64(steps))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.p1.color))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.p1.phase2Start))
	dst = binary.BigEndian.AppendUint32(dst, uint32(d.mp.succ))
	return dst
}

// RestoreFinal implements congest.PortableProgram. The restored program
// carries only terminal state: enough for extraction, not for further rounds.
func (d *dhc2Node) RestoreFinal(src []byte) ([]byte, error) {
	if len(src) < 25 {
		return nil, fmt.Errorf("core: truncated dhc2 final state (%d bytes)", len(src))
	}
	status := src[0]
	steps := int64(binary.BigEndian.Uint64(src[1:]))
	d.p1.dra = nil
	if status != 0 {
		d.p1.dra = dra.NewFinalState(dra.Status(status), steps, -1, -1)
	}
	d.p1.color = int32(binary.BigEndian.Uint32(src[9:]))
	d.p1.phase2Start = int64(binary.BigEndian.Uint64(src[13:]))
	d.mp.succ = graph.NodeID(binary.BigEndian.Uint32(src[21:]))
	return src[25:], nil
}
