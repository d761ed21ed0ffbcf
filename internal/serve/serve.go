// Package serve is the HTTP/JSON solver service: the deployable runtime over
// the repository's solver sessions. It turns the one-shot CLI surface into a
// long-running server built from four pieces the run-lifecycle layer already
// provides:
//
//   - a pool of reusable dhc.Solver sessions keyed by (algorithm, options,
//     n-class), so engine arenas recycle across requests exactly as they do
//     across a sweep cell's trials;
//   - a bounded admission queue with backpressure: at most Concurrency solves
//     run at once, at most Queue requests wait, and the rest are refused with
//     429 + Retry-After instead of being buffered into memory exhaustion;
//   - per-request deadlines threaded to SolveContext, so an abandoned or
//     over-budget request stops burning CPU at the engine's next checkpoint;
//   - a replay cache keyed by (graph content hash, algorithm, options, seed):
//     solves are byte-deterministic, so a repeated request is answered by
//     replaying the stored response body — guaranteed byte-identical to a
//     fresh computation (pinned by TestReplayCacheByteIdentity).
//
// The failure taxonomy survives the wire: dhc.Classify's classes map to
// distinct HTTP statuses (ok 200, no_hc 404, round_limit 422, canceled 504,
// error 400) and the JSON body carries the class name and message, so a
// client can rebuild the same statistics a local harness would. A generated
// instance is a sweep.Recipe and every body a sweep.Record, the recipe and
// record hcrun -graph and hcrun -json use.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"dhc"
	"dhc/internal/graph"
	"dhc/internal/sweep"
)

// Config shapes a Server.
type Config struct {
	// Concurrency bounds simultaneously executing solves (default 2). Each
	// running solve may itself use Workers pool goroutines.
	Concurrency int
	// Queue bounds requests waiting for a solve slot (default 64; negative
	// means no waiting room at all); beyond it requests are refused with
	// 429 + Retry-After.
	Queue int
	// CacheEntries bounds the replay cache (default 1024; negative disables
	// caching).
	CacheEntries int
	// MaxTimeout caps every request's solve deadline (default 60s); requests
	// may ask for less via timeout_ms but never more.
	MaxTimeout time.Duration
	// Workers is the per-solve engine worker bound handed to every session
	// (results are byte-identical at any value; this is purely a CPU knob).
	Workers int
	// MaxN rejects absurd instance sizes up front (default 1<<20 vertices).
	MaxN int
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 20
	}
	return c
}

// SolveRequest is the JSON body of POST /solve and POST /solve/stream. The
// instance is either generated (family/n/param/delta/graph_seed, decoded
// into the sweep.Recipe hcrun -graph and hcgen -graph name, zero fields
// taking its defaults) or explicit (n plus an edge list); exactly one of the
// two forms must be used. Both answer with a sweep.Record, the record
// hcrun -json prints.
type SolveRequest struct {
	// Family selects a generator ("gnp", "gnm", "regular", "powerlaw",
	// "geometric", "sbm", "hypercube", "torus"); empty means explicit edges.
	Family string `json:"family,omitempty"`
	// N is the vertex count (both forms).
	N int `json:"n"`
	// Param is the family's density knob (threshold constant c, degree, ...).
	Param float64 `json:"param,omitempty"`
	// GraphSeed seeds the generator (ignored by deterministic lattices).
	GraphSeed uint64 `json:"graph_seed,omitempty"`
	// Edges is the explicit instance: undirected edges over [0, n). Self
	// loops, duplicates, and out-of-range endpoints are rejected.
	Edges [][2]int32 `json:"edges,omitempty"`

	// Algo is the algorithm name ("dra", "dhc1", "dhc2", "upcast").
	Algo string `json:"algo"`
	// Engine is "step" (default) or "exact".
	Engine string `json:"engine,omitempty"`
	// Seed is the solver seed; the response is a pure function of
	// (instance, algo, options, seed).
	Seed uint64 `json:"seed"`
	// Delta is the threshold/partition exponent (generator families that use
	// it, and DHC2); 0 defaults to 1, as in every recipe.
	Delta float64 `json:"delta,omitempty"`
	// NumColors / MaxRounds are the solver budget overrides, with
	// dhc.Options semantics (0 = derived defaults).
	NumColors int   `json:"num_colors,omitempty"`
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// TimeoutMS bounds the solve's wall clock (clamped to the server's
	// MaxTimeout). Expiry returns the "canceled" class with HTTP 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IncludeCycle asks for the cycle's vertex order in the response.
	IncludeCycle bool `json:"include_cycle,omitempty"`
}

// StreamEvent is one line of the POST /solve/stream ndjson response: progress
// events ("phase", "rounds", "restart") as the solve advances, then a final
// "result" event embedding the same record a plain solve returns.
type StreamEvent struct {
	Event    string        `json:"event"`
	Phase    string        `json:"phase,omitempty"`
	Rounds   int64         `json:"rounds,omitempty"`
	Restarts int           `json:"restarts,omitempty"`
	Result   *sweep.Record `json:"result,omitempty"`
}

// Stats is the GET /stats payload.
type Stats struct {
	Requests       int64 `json:"requests"`
	InFlight       int64 `json:"in_flight"`
	Queued         int64 `json:"queued"`
	Rejected       int64 `json:"rejected"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	SolversCreated int64 `json:"solvers_created"`
	SolversReused  int64 `json:"solvers_reused"`
}

// statusFor maps the failure taxonomy onto distinct HTTP statuses. The
// mapping is part of the wire contract (pinned by TestStatusMapping):
//
//	ok          200  a verified Hamiltonian cycle
//	no_hc       404  the run completed; no cycle exists/was found
//	round_limit 422  the round budget cut the run off (raise max_rounds)
//	canceled    504  the request deadline expired mid-solve
//	error       400  the request itself is invalid (retrying cannot help)
//
// One error-class outcome answers outside the table: a solve that panicked
// is the server's failure, not the request's, and runSolve answers it 500.
func statusFor(class dhc.FailureClass) int {
	switch class {
	case dhc.FailureNone:
		return http.StatusOK
	case dhc.FailureNoHC:
		return http.StatusNotFound
	case dhc.FailureRoundLimit:
		return http.StatusUnprocessableEntity
	case dhc.FailureCanceled:
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// Server is the solver service. Create with New, expose via Handler, and
// shut down by draining the enclosing http.Server (the handlers hold no
// background goroutines: once Shutdown returns, no solve is in flight).
type Server struct {
	cfg     Config
	pool    *solverPool
	cache   *lru[cacheKey, replayEntry] // deterministic solve responses
	recipes *lru[string, cacheKey]

	// sem holds one token per running solve; admission waits here (bounded
	// by queued) so at most Concurrency solves execute at once.
	sem      chan struct{}
	queued   atomic.Int64
	requests atomic.Int64
	inflight atomic.Int64
	rejected atomic.Int64

	// solve executes one trial on a checked-out session. A test seam: the
	// queue/backpressure contract is pinned with a blocking solve without
	// tying the test to engine timing.
	solve func(ctx context.Context, s *dhc.Solver, g *dhc.Graph, seed uint64) (*dhc.Result, error)
}

// New builds a Server from cfg (zero values take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pool:    newSolverPool(cfg.Concurrency),
		cache:   newLRU[cacheKey, replayEntry](cfg.CacheEntries),
		recipes: newRecipeCache(cfg.CacheEntries),
		sem:     make(chan struct{}, cfg.Concurrency),
		solve: func(ctx context.Context, s *dhc.Solver, g *dhc.Graph, seed uint64) (*dhc.Result, error) {
			return s.SolveSeeded(ctx, g, seed)
		},
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/solve/stream", s.handleStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.counts()
	created, reused := s.pool.counts()
	st := Stats{
		Requests:       s.requests.Load(),
		InFlight:       s.inflight.Load(),
		Queued:         s.queued.Load(),
		Rejected:       s.rejected.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		SolversCreated: created,
		SolversReused:  reused,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// parsedRequest is a validated request. Explicit-edge instances arrive
// materialized (the graph is already in the request body); generated
// instances stay lazy — g is nil until materialize builds it — so a replay
// hit whose recipe digest is memoized never constructs the graph at all.
type parsedRequest struct {
	req    SolveRequest
	g      *dhc.Graph
	recipe sweep.Recipe
	text   string // recipe.String(); "" for explicit instances
	algo   dhc.Algorithm
	opts   dhc.Options // seedless, as the session pool keys them
}

// parseSolve validates and resolves a request body. Every rejection is a
// FailureError-class outcome (HTTP 400) with a message naming the field.
func (s *Server) parseSolve(r *http.Request) (*parsedRequest, error) {
	if r.Method != http.MethodPost {
		return nil, fmt.Errorf("serve: %s requires POST", r.URL.Path)
	}
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<28))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: bad request body: %w", err)
	}
	algo, err := dhc.ParseAlgorithm(req.Algo)
	if err != nil {
		return nil, err
	}
	engine := dhc.EngineStep
	if req.Engine != "" {
		if engine, err = dhc.ParseEngine(req.Engine); err != nil {
			return nil, err
		}
	}
	if req.MaxRounds < 0 || req.NumColors < 0 || req.TimeoutMS < 0 {
		return nil, fmt.Errorf("serve: negative budget field")
	}
	recipe := sweep.Recipe{N: req.N, Param: req.Param, Delta: req.Delta, GraphSeed: req.GraphSeed}
	if req.Family != "" {
		if recipe.Family, err = sweep.ParseFamily(req.Family); err != nil {
			return nil, err
		}
	}
	recipe = recipe.WithDefaults()
	if recipe.N > s.cfg.MaxN {
		return nil, fmt.Errorf("serve: n = %d exceeds the server's limit %d", recipe.N, s.cfg.MaxN)
	}
	if err := recipe.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	var g *dhc.Graph
	var text string
	switch {
	case req.Family != "" && len(req.Edges) > 0:
		return nil, fmt.Errorf("serve: family and edges are mutually exclusive")
	case req.Family != "":
		text = recipe.String()
	case len(req.Edges) > 0:
		edges := make([]graph.Edge, len(req.Edges))
		for i, e := range req.Edges {
			u, v := e[0], e[1]
			if u == v || u < 0 || v < 0 || int(u) >= req.N || int(v) >= req.N {
				return nil, fmt.Errorf("serve: invalid edge (%d, %d) for n = %d", u, v, req.N)
			}
			edges[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}
		}
		g = graph.FromEdges(req.N, edges)
	default:
		return nil, fmt.Errorf("serve: request needs a family or an edge list")
	}

	return &parsedRequest{
		req:    req,
		g:      g,
		recipe: recipe,
		text:   text,
		algo:   algo,
		opts: dhc.Options{
			Engine:    engine,
			Delta:     recipe.Delta,
			NumColors: req.NumColors,
			MaxRounds: req.MaxRounds,
			Workers:   s.cfg.Workers,
		},
	}, nil
}

// materialize builds a lazy (generated) instance; a no-op when the graph is
// already present. Generation errors are FailureError-class outcomes.
func (s *Server) materialize(p *parsedRequest) error {
	if p.g != nil {
		return nil
	}
	var err error
	p.g, err = p.recipe.Build()
	return err
}

// solveKey computes the request's replay-cache key. Explicit instances are
// digested directly; generated instances consult the recipe memo first and
// only build + digest the graph on a recipe miss (generation is
// deterministic, so the memoized digest is exact).
func (s *Server) solveKey(p *parsedRequest) (cacheKey, error) {
	var digest cacheKey
	if p.text != "" {
		if d, ok := s.recipes.get(p.text); ok {
			digest = d
		} else {
			if err := s.materialize(p); err != nil {
				return cacheKey{}, err
			}
			digest = hashGraph(p.g)
			s.recipes.put(p.text, digest)
		}
	} else {
		digest = hashGraph(p.g)
	}
	return hashSolve(digest, p.algo, p.opts, p.req.Seed, p.req.IncludeCycle), nil
}

// admit acquires a solve slot, waiting in the bounded queue. It returns a
// release func, or an error when the queue is full (backpressure) or the
// request died while queued.
var errQueueFull = errors.New("serve: server busy (queue full)")

func (s *Server) admit(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// No free slot: join the bounded queue or refuse. The counter check
		// is optimistic (two racing requests may both observe the last free
		// queue slot), which can transiently over-admit a waiter by one —
		// backpressure is a load-shedding bound, not an exact semaphore.
		if s.queued.Add(1) > int64(s.cfg.Queue) {
			s.queued.Add(-1)
			s.rejected.Add(1)
			return nil, errQueueFull
		}
		defer s.queued.Add(-1)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.inflight.Add(1)
	return func() {
		s.inflight.Add(-1)
		<-s.sem
	}, nil
}

// deadline returns the request's solve context.
func (s *Server) deadline(ctx context.Context, req *SolveRequest) (context.Context, context.CancelFunc) {
	timeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	return context.WithTimeout(ctx, timeout)
}

// runSolve executes one admitted request on a pooled session and returns
// its status and deterministic record. It is the panic boundary: a panicking solve
// becomes a FailureError response with status 500 — the request may be
// fine, the server failed it — and, since the panic unwinds past pool.put,
// its session, whose state the panic may have left half-written, is dropped
// instead of pooled.
func (s *Server) runSolve(ctx context.Context, p *parsedRequest, obs *dhc.Observer) (status int, rec sweep.Record) {
	opts := p.opts
	opts.Seed = p.req.Seed
	defer func() {
		if v := recover(); v != nil {
			status = http.StatusInternalServerError
			rec = sweep.NewRecord(p.text, p.algo, opts, p.g, nil, fmt.Errorf("serve: solver panicked: %v", v))
		}
	}()
	key := poolKey{algo: p.algo, opts: p.opts, nClass: nClass(p.g.N())}
	var (
		res *dhc.Result
		err error
	)
	if obs != nil {
		// Streaming requests need a per-request Observer, which is per-session
		// state; they use a dedicated session instead of a pooled one so the
		// pooled sessions stay observer-free (and therefore shareable).
		streamOpts := p.opts
		streamOpts.Observer = obs
		var solver *dhc.Solver
		if solver, err = dhc.NewSolver(p.algo, streamOpts); err == nil {
			res, err = s.solve(ctx, solver, p.g, p.req.Seed)
		}
	} else {
		var solver *dhc.Solver
		if solver, err = s.pool.get(key); err == nil {
			res, err = s.solve(ctx, solver, p.g, p.req.Seed)
			// Return the session even after failed or canceled trials: the
			// session contract keeps it byte-identically reusable.
			s.pool.put(key, solver)
		}
	}

	rec = sweep.NewRecord(p.text, p.algo, opts, p.g, res, err)
	if err == nil && p.req.IncludeCycle {
		rec.Cycle = res.Cycle.Order()
	}
	return statusFor(dhc.Classify(err)), rec
}

// cacheable reports whether a response may be replayed: only deterministic
// outcomes. Canceled runs are wall-clock evidence and config errors are
// cheap to recompute; neither earns an entry.
func cacheable(status int) bool {
	switch status {
	case http.StatusOK, http.StatusNotFound, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	p, err := s.parseSolve(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	key, err := s.solveKey(p)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	if entry, ok := s.cache.get(key); ok {
		body := entry.body
		if entry.recipe != p.text {
			// Another recipe or an edge list named the same graph: the
			// outcome is shared, the recipe in the record is this request's.
			var rec sweep.Record
			json.Unmarshal(body, &rec)
			rec.Recipe = p.text
			body = mustJSON(rec)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(entry.status)
		w.Write(body)
		return
	}

	release, err := s.admit(r.Context())
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeJSONError(w, http.StatusTooManyRequests, err)
			return
		}
		writeJSONError(w, statusFor(dhc.Classify(err)), err)
		return
	}
	start := time.Now()
	status, body, err := s.solveInSlot(r.Context(), p, release)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}

	if cacheable(status) {
		s.cache.put(key, replayEntry{status: status, recipe: p.text, body: body})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("X-Solve-Wall-MS", fmt.Sprintf("%.3f", time.Since(start).Seconds()*1e3))
	w.WriteHeader(status)
	w.Write(body)
}

// solveInSlot builds the instance and solves it inside the admission slot
// release frees, and frees it however the call ends. Generation runs inside
// the slot: instance construction is solver work, and an unbounded burst of
// cache misses must not build graphs beyond the configured concurrency. A
// non-nil error is a generation failure, before any solve.
func (s *Server) solveInSlot(ctx context.Context, p *parsedRequest, release func()) (int, []byte, error) {
	defer release()
	if err := s.materialize(p); err != nil {
		return 0, nil, err
	}
	ctx, cancel := s.deadline(ctx, &p.req)
	defer cancel()
	status, rec := s.runSolve(ctx, p, nil)
	return status, mustJSON(rec), nil
}

// handleStream is the chunked-ndjson variant: progress events from the
// Observer hooks as they fire, then the final result event. Streamed solves
// go through the same admission queue and deadline but bypass the replay
// cache — their value is the live progress, and the event timing is not part
// of any determinism contract (the final result event's payload is).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	p, err := s.parseSolve(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeJSONError(w, http.StatusTooManyRequests, err)
			return
		}
		writeJSONError(w, statusFor(dhc.Classify(err)), err)
		return
	}
	defer release()
	if err := s.materialize(p); err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev StreamEvent) {
		// Observer callbacks run on the solving goroutine — this handler's
		// goroutine — so emits never interleave.
		b := mustJSON(ev)
		w.Write(b)
		w.Write([]byte("\n"))
		if flusher != nil {
			flusher.Flush()
		}
	}

	// OnRounds fires at the exact engine's amortized checkpoints; throttle
	// the wire to ~10 events/s so a long solve does not flood the stream.
	var lastRounds time.Time
	obs := &dhc.Observer{
		OnPhase: func(phase string) { emit(StreamEvent{Event: "phase", Phase: phase}) },
		OnRestart: func(restarts int) {
			emit(StreamEvent{Event: "restart", Restarts: restarts})
		},
		OnRounds: func(rounds int64) {
			if time.Since(lastRounds) < 100*time.Millisecond {
				return
			}
			lastRounds = time.Now()
			emit(StreamEvent{Event: "rounds", Rounds: rounds})
		},
	}
	ctx, cancel := s.deadline(r.Context(), &p.req)
	defer cancel()
	_, rec := s.runSolve(ctx, p, obs)
	emit(StreamEvent{Event: "result", Result: &rec})
}

// writeJSONError renders a non-outcome failure in the response shape; the
// body's status field carries the error's failure class so a 504 from a
// request that died while queued still spells "canceled".
func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(mustJSON(sweep.Record{Status: dhc.Classify(err).String(), Error: err.Error()}))
}

// mustJSON marshals a value the package fully controls.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshal: %v", err))
	}
	return b
}
