package congest

// ProgramSpec is the transport-portable description of a node program: enough
// for a worker process that shares no memory with the driver to reconstruct
// an equivalent program for any vertex. Fields beyond Algo are interpreted
// per algorithm (B is DRA's broadcast bound and DHC2's settling bound;
// NumColors is DHC2's partition count; MaxSteps DRA's rotation budget).
type ProgramSpec struct {
	Algo      string
	NumColors int32
	B         int64
	MaxSteps  int64
}

// PortableProgram is implemented by node programs that can run in a separate
// OS process: the program describes its configuration (DistSpec, shipped to
// the worker at startup) and its terminal state (AppendFinal, shipped back
// after the run and replayed into the driver's own program structs via
// RestoreFinal, so normal result extraction works unchanged). Programs whose
// extraction needs more than their serialized terminal state — DHC1's
// hypernode bookkeeping, Upcast's root-held solution — do not implement this
// and are restricted to shared-memory shard workers.
type PortableProgram interface {
	Node
	// DistSpec returns the program's reconstruction recipe.
	DistSpec() ProgramSpec
	// AppendFinal appends the program's terminal state to dst.
	AppendFinal(dst []byte) []byte
	// RestoreFinal consumes this program's terminal state from src (as
	// written by AppendFinal) and returns the remaining bytes.
	RestoreFinal(src []byte) ([]byte, error)
}
