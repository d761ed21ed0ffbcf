// Service-layer contract tests. The load-bearing properties:
//
//  1. The failure taxonomy survives the wire: each dhc.Classify class maps to
//     its own HTTP status and the body spells the class name (status table).
//  2. Replay-cache hits are byte-identical to computed responses — both
//     within one server (miss then hit) and against an independent fresh
//     server computing the same request.
//  3. A request deadline that expires mid-solve returns the "canceled" class
//     with 504, and the session survives for the next request.
//  4. Backpressure: with the queue full, requests are refused with 429 +
//     Retry-After instead of waiting unboundedly.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dhc"
	"dhc/internal/sweep"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func decodeResponse(t *testing.T, data []byte) sweep.Record {
	t.Helper()
	var sr sweep.Record
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("bad response body %q: %v", data, err)
	}
	return sr
}

// TestStatusMapping drives one real request per failure class through the
// full handler stack and pins the class -> (HTTP status, body status) table.
func TestStatusMapping(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		body       string
		wantHTTP   int
		wantStatus string
	}{
		{
			// p clamps to 1 (complete graph): success is deterministic.
			name:       "ok",
			body:       `{"family":"gnp","n":32,"param":40,"seed":1,"algo":"dra","engine":"step"}`,
			wantHTTP:   http.StatusOK,
			wantStatus: "ok",
		},
		{
			// A path graph has no Hamiltonian cycle.
			name:       "no_hc",
			body:       `{"n":4,"edges":[[0,1],[1,2],[2,3]],"seed":1,"algo":"dra","engine":"step"}`,
			wantHTTP:   http.StatusNotFound,
			wantStatus: "no_hc",
		},
		{
			// One round is never enough for the exact engine to terminate.
			name:       "round_limit",
			body:       `{"family":"gnp","n":32,"param":40,"seed":1,"algo":"dra","engine":"exact","max_rounds":1}`,
			wantHTTP:   http.StatusUnprocessableEntity,
			wantStatus: "round_limit",
		},
		{
			name:       "error_unknown_algo",
			body:       `{"family":"gnp","n":32,"param":3,"seed":1,"algo":"nope"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			// "dist" is not an engine (sharding is Options.Shards); it must
			// not fall through to an in-process exact solve.
			name:       "error_engine_dist",
			body:       `{"family":"gnp","n":32,"param":3,"seed":1,"algo":"dra","engine":"dist"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			// The dense sweep is a test oracle (congest.Options.DenseSweep),
			// not an engine a request can select.
			name:       "error_engine_exact_dense",
			body:       `{"family":"gnp","n":32,"param":3,"seed":1,"algo":"dra","engine":"exact-dense"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			name:       "error_bad_edge",
			body:       `{"n":4,"edges":[[0,9]],"seed":1,"algo":"dra"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			name:       "error_family_and_edges",
			body:       `{"family":"gnp","n":4,"param":1,"edges":[[0,1]],"seed":1,"algo":"dra"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			name:       "error_malformed_json",
			body:       `{"family":`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
		{
			name:       "error_tiny_n",
			body:       `{"family":"gnp","n":2,"param":3,"seed":1,"algo":"dra"}`,
			wantHTTP:   http.StatusBadRequest,
			wantStatus: "error",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/solve", tc.body)
			if resp.StatusCode != tc.wantHTTP {
				t.Fatalf("HTTP status = %d, want %d (body %s)", resp.StatusCode, tc.wantHTTP, data)
			}
			if sr := decodeResponse(t, data); sr.Status != tc.wantStatus {
				t.Fatalf("body status = %q, want %q (body %s)", sr.Status, tc.wantStatus, data)
			}
		})
	}
}

// TestMaxAttemptsIsUnknownField pins that the attempt budget is not a request
// field: both engines share one fixed budget (rotation.Attempts), so a body
// that still sets max_attempts is refused with 400 and a message naming the
// field, not solved under a budget it did not get.
func TestMaxAttemptsIsUnknownField(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/solve",
		`{"family":"gnp","n":32,"param":40,"seed":1,"algo":"dra","engine":"step","max_attempts":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP status = %d, want %d (body %s)", resp.StatusCode, http.StatusBadRequest, data)
	}
	sr := decodeResponse(t, data)
	if sr.Status != "error" || !strings.Contains(sr.Error, `"max_attempts"`) {
		t.Fatalf("want an error naming max_attempts, got status %q error %q", sr.Status, sr.Error)
	}
}

// TestStatusForTable pins the raw mapping function over every class.
func TestStatusForTable(t *testing.T) {
	want := map[dhc.FailureClass]int{
		dhc.FailureNone:       http.StatusOK,
		dhc.FailureNoHC:       http.StatusNotFound,
		dhc.FailureRoundLimit: http.StatusUnprocessableEntity,
		dhc.FailureCanceled:   http.StatusGatewayTimeout,
		dhc.FailureError:      http.StatusBadRequest,
	}
	for class, status := range want {
		if got := statusFor(class); got != status {
			t.Errorf("statusFor(%v) = %d, want %d", class, got, status)
		}
	}
	// Distinctness is the point of the table: collapse would lose taxonomy.
	seen := map[int]dhc.FailureClass{}
	for class, status := range want {
		if prev, dup := seen[status]; dup {
			t.Errorf("classes %v and %v share status %d", prev, class, status)
		}
		seen[status] = class
	}
}

// TestReplayCacheByteIdentity pins the cache contract: a hit replays the
// exact bytes a computation produced — asserted both within one server
// (miss, then hit) and across servers (an independent, cache-cold server
// computing the same request must produce the same bytes the first server
// cached).
func TestReplayCacheByteIdentity(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	ts2 := httptest.NewServer(New(Config{}).Handler())
	defer ts2.Close()

	for _, body := range []string{
		`{"family":"gnp","n":48,"param":40,"seed":7,"algo":"dra","engine":"step","include_cycle":true}`,
		`{"family":"gnp","n":48,"param":40,"seed":7,"algo":"dhc2","engine":"exact","delta":0.5,"num_colors":4}`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3]],"seed":1,"algo":"dra","engine":"step"}`, // a no_hc outcome is cacheable too
	} {
		miss, missBody := postJSON(t, ts.URL+"/solve", body)
		if got := miss.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("first request X-Cache = %q, want miss", got)
		}
		hit, hitBody := postJSON(t, ts.URL+"/solve", body)
		if got := hit.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("second request X-Cache = %q, want hit", got)
		}
		if hit.StatusCode != miss.StatusCode {
			t.Fatalf("cached status %d != computed status %d", hit.StatusCode, miss.StatusCode)
		}
		if !bytes.Equal(hitBody, missBody) {
			t.Fatalf("cached body differs from computed body:\n  computed: %s\n  cached:   %s", missBody, hitBody)
		}
		_, freshBody := postJSON(t, ts2.URL+"/solve", body)
		if !bytes.Equal(freshBody, missBody) {
			t.Fatalf("independent server's body differs from cached body:\n  fresh:  %s\n  cached: %s", freshBody, missBody)
		}
	}
}

// TestCacheKeyIgnoresWorkersAndTimeout pins the key's determinism reasoning:
// worker count and deadline do not shape a (non-canceled) outcome, so they
// must not fragment the cache.
func TestCacheKeyIgnoresWorkersAndTimeout(t *testing.T) {
	ts := httptest.NewServer(New(Config{Workers: 1}).Handler())
	defer ts.Close()

	first := `{"family":"gnp","n":48,"param":40,"seed":3,"algo":"dra","engine":"step"}`
	second := `{"family":"gnp","n":48,"param":40,"seed":3,"algo":"dra","engine":"step","timeout_ms":30000}`
	if resp, _ := postJSON(t, ts.URL+"/solve", first); resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("expected a cold miss")
	}
	if resp, _ := postJSON(t, ts.URL+"/solve", second); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("a differing timeout_ms must not miss the cache")
	}
	// A differing seed is a different solve and must miss.
	third := `{"family":"gnp","n":48,"param":40,"seed":4,"algo":"dra","engine":"step"}`
	if resp, _ := postJSON(t, ts.URL+"/solve", third); resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("a differing seed must miss the cache")
	}
}

// TestDeadlineExpiryReturnsCanceled runs a real exact-engine solve under a
// 1ms deadline: the engine's cooperative cancellation must surface as the
// "canceled" class with HTTP 504, the response must not be cached, and the
// pooled session must remain usable (the follow-up uncapped request
// succeeds).
func TestDeadlineExpiryReturnsCanceled(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	capped := `{"family":"gnp","n":256,"param":3,"delta":0.5,"seed":1,"algo":"dra","engine":"exact","timeout_ms":1}`
	resp, data := postJSON(t, ts.URL+"/solve", capped)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP status = %d, want 504 (body %s)", resp.StatusCode, data)
	}
	if sr := decodeResponse(t, data); sr.Status != "canceled" {
		t.Fatalf("body status = %q, want canceled", sr.Status)
	}

	// Canceled outcomes are wall-clock evidence, never cache entries: the
	// same request without the deadline must compute (miss) and succeed.
	uncapped := `{"family":"gnp","n":256,"param":3,"delta":0.5,"seed":1,"algo":"dra","engine":"exact"}`
	resp2, data2 := postJSON(t, ts.URL+"/solve", uncapped)
	if resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("uncapped request X-Cache = %q, want miss", resp2.Header.Get("X-Cache"))
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel solve HTTP status = %d, want 200 (body %s)", resp2.StatusCode, data2)
	}
}

// blockingServer returns a test server whose solve seam parks until release
// is closed (or the solve context dies), plus a channel that receives one
// value per solve start.
func blockingServer(cfg Config, release <-chan struct{}) (*Server, chan struct{}) {
	s := New(cfg)
	started := make(chan struct{}, 16)
	s.solve = func(ctx context.Context, _ *dhc.Solver, g *dhc.Graph, _ uint64) (*dhc.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return nil, fmt.Errorf("%w: blocked solve", dhc.ErrNoHamiltonianCycle)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s, started
}

// TestBackpressureQueueFull pins the 429 contract: with one solve slot held
// and no waiting room, the next request is refused immediately with 429 and
// a Retry-After header.
func TestBackpressureQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, started := blockingServer(Config{Concurrency: 1, Queue: -1}, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"family":"gnp","n":16,"param":40,"seed":1,"algo":"dra","engine":"step"}`
	type result struct {
		resp *http.Response
		data []byte
	}
	firstDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			firstDone <- result{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		firstDone <- result{resp, data}
	}()
	<-started // the slot is now held

	// A second, distinct request (the first is not yet cached) must bounce.
	busy := `{"family":"gnp","n":16,"param":40,"seed":2,"algo":"dra","engine":"step"}`
	resp, data := postJSON(t, ts.URL+"/solve", busy)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if sr := decodeResponse(t, data); sr.Status != "error" {
		t.Fatalf("429 body status = %q, want error", sr.Status)
	}

	close(release)
	r := <-firstDone
	if r.resp == nil {
		t.Fatal("first request failed at the transport layer")
	}
	if r.resp.StatusCode != http.StatusNotFound {
		t.Fatalf("released request HTTP status = %d, want 404 (body %s)", r.resp.StatusCode, r.data)
	}
}

// TestQueueAdmitsWaiters pins the other half of admission: with one waiting
// slot, a concurrent request queues (no 429) and completes once the slot
// frees.
func TestQueueAdmitsWaiters(t *testing.T) {
	release := make(chan struct{})
	s, started := blockingServer(Config{Concurrency: 1, Queue: 1}, release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := func(seed int) string {
		return fmt.Sprintf(`{"family":"gnp","n":16,"param":40,"seed":%d,"algo":"dra","engine":"step"}`, seed)
	}
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(seed int) {
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body(seed)))
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i + 1)
	}
	<-started // one running; give the second request time to join the queue
	time.Sleep(50 * time.Millisecond)
	close(release) // both solves now return no_hc
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code != http.StatusNotFound {
				t.Fatalf("request %d finished with %d, want 404", i, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("queued request never completed")
		}
	}
}

// TestSessionPoolReuse pins that repeated same-shape requests are served from
// recycled sessions, not fresh constructions.
func TestSessionPoolReuse(t *testing.T) {
	s := New(Config{Concurrency: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := 1; seed <= 4; seed++ {
		body := fmt.Sprintf(`{"family":"gnp","n":48,"param":40,"seed":%d,"algo":"dra","engine":"step"}`, seed)
		if resp, data := postJSON(t, ts.URL+"/solve", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d (body %s)", seed, resp.StatusCode, data)
		}
	}
	created, reused := s.pool.counts()
	if created != 1 || reused != 3 {
		t.Fatalf("pool counts: created=%d reused=%d, want 1 created / 3 reused", created, reused)
	}
}

// TestStreamSolve drives the ndjson endpoint: at least one phase event, then
// a final result event whose payload matches the non-streaming response for
// the same request.
func TestStreamSolve(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	body := `{"family":"gnp","n":48,"param":40,"seed":5,"algo":"dhc2","engine":"step","delta":0.5}`
	resp, data := postJSON(t, ts.URL+"/solve/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream HTTP status = %d (body %s)", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream produced %d events, want >= 2: %s", len(lines), data)
	}
	var sawPhase bool
	var final StreamEvent
	for i, line := range lines {
		var ev StreamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %d %q: %v", i, line, err)
		}
		if ev.Event == "phase" {
			sawPhase = true
		}
		if i == len(lines)-1 {
			final = ev
		}
	}
	if !sawPhase {
		t.Fatalf("no phase event in stream: %s", data)
	}
	if final.Event != "result" || final.Result == nil {
		t.Fatalf("last event = %+v, want a result event", final)
	}
	if final.Result.Status != "ok" {
		t.Fatalf("streamed result status = %q, want ok", final.Result.Status)
	}

	// The streamed result payload must agree with the plain endpoint.
	_, plainBody := postJSON(t, ts.URL+"/solve", body)
	plain := decodeResponse(t, plainBody)
	if final.Result.Rounds != plain.Rounds || final.Result.Steps != plain.Steps ||
		final.Result.N != plain.N || final.Result.M != plain.M {
		t.Fatalf("streamed result %+v != plain result %+v", final.Result, plain)
	}
}

// TestRecipeMemoSkipsGeneration pins the lazy-materialization path: once a
// generated instance's digest is memoized, a repeat request is keyed (and on
// a hit answered) without rebuilding the graph.
func TestRecipeMemoSkipsGeneration(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"family":"gnp","n":48,"param":40,"seed":11,"algo":"dra","engine":"step"}`
	postJSON(t, ts.URL+"/solve", body)
	recipe := "gnp/n=48/param=40/delta=1/gs=0"
	digest, ok := s.recipes.get(recipe)
	if !ok {
		t.Fatalf("recipe %q not memoized after a solve", recipe)
	}
	// The memoized digest must equal the instance's content digest — that
	// equality is what makes serving from the memo sound.
	g, err := sweep.Recipe{Family: sweep.FamilyGNP, N: 48, Param: 40, Delta: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if digest != hashGraph(g) {
		t.Fatal("memoized digest differs from the instance's content digest")
	}

	// A repeat request must be answered purely from the memo + replay cache:
	// cripple materialization and it still succeeds.
	s.recipes.put(recipe, digest)
	resp, _ := postJSON(t, ts.URL+"/solve", body)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
}

// TestRecipeCacheLRU pins the memo's bound: the oldest recipe falls out.
func TestRecipeCacheLRU(t *testing.T) {
	c := newRecipeCache(2)
	c.put("a", cacheKey{1})
	c.put("b", cacheKey{2})
	if _, ok := c.get("a"); !ok { // refresh a's recency
		t.Fatal("a missing")
	}
	c.put("c", cacheKey{3})
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	disabled := newRecipeCache(-1)
	disabled.put("x", cacheKey{4})
	if _, ok := disabled.get("x"); ok {
		t.Fatal("disabled memo stored an entry")
	}
}

// TestExplicitEdgesMatchGeneratedInstance pins the content-addressed cache
// key: posting a generated instance's explicit edge list hits the entry its
// generated form created. The hit answers with the outcome the generated
// solve computed but records no recipe, byte for byte what a fresh server
// computes for the edge list.
func TestExplicitEdgesMatchGeneratedInstance(t *testing.T) {
	g := dhc.NewGNP(24, dhc.ThresholdP(24, 40, 1), 9)
	var sb strings.Builder
	for i, e := range g.Edges() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", e.U, e.V)
	}
	generated := `{"family":"gnp","n":24,"param":40,"graph_seed":9,"seed":2,"algo":"dra","engine":"step"}`
	explicit := fmt.Sprintf(`{"n":24,"edges":[%s],"seed":2,"algo":"dra","engine":"step"}`, sb.String())

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()
	_, genBody := postJSON(t, ts.URL+"/solve", generated)
	resp, expBody := postJSON(t, ts.URL+"/solve", explicit)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("explicit edge list X-Cache = %q, want hit (content-addressed key)", resp.Header.Get("X-Cache"))
	}
	if _, want := postJSON(t, fresh.URL+"/solve", explicit); !bytes.Equal(expBody, want) {
		t.Fatalf("replayed explicit body differs from a fresh computation:\n  %s\n  %s", expBody, want)
	}
	gen, exp := decodeResponse(t, genBody), decodeResponse(t, expBody)
	if gen.Recipe != "gnp/n=24/param=40/delta=1/gs=9" || exp.Recipe != "" {
		t.Fatalf("recipes %q (generated) and %q (explicit)", gen.Recipe, exp.Recipe)
	}
	gen.Recipe = ""
	if !reflect.DeepEqual(gen, exp) {
		t.Fatalf("generated and explicit records differ beyond the recipe:\n  %s\n  %s", genBody, expBody)
	}
}

// TestSolvePanicFreesSlot pins the panic boundary on a one-slot server: a
// solve that panics answers 500 with the error class and is not cached, its
// slot is freed and its session dropped, and the next request succeeds with
// the bytes a fresh server computes.
func TestSolvePanicFreesSlot(t *testing.T) {
	s := New(Config{Concurrency: 1, Queue: -1})
	solve := s.solve
	panics := 0
	s.solve = func(ctx context.Context, sv *dhc.Solver, g *dhc.Graph, seed uint64) (*dhc.Result, error) {
		if seed == 1 {
			panics++
			panic("injected solver fault")
		}
		return solve(ctx, sv, g, seed)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()

	bad := `{"family":"gnp","n":48,"param":40,"seed":1,"algo":"dra","engine":"step"}`
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/solve", bad)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking solve %d: HTTP status = %d, want 500 (body %s)", i, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("panicking solve %d: X-Cache = %q, want miss (a panic must not be cached)", i, got)
		}
		sr := decodeResponse(t, data)
		if sr.Status != "error" || !strings.Contains(sr.Error, "injected solver fault") {
			t.Fatalf("panicking solve %d: body %s, want status error naming the panic", i, data)
		}
	}
	if panics != 2 {
		t.Fatalf("solve seam panicked %d times, want 2", panics)
	}

	good := `{"family":"gnp","n":48,"param":40,"seed":2,"algo":"dra","engine":"step","include_cycle":true}`
	resp, data := postJSON(t, ts.URL+"/solve", good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after a panic: HTTP status = %d, want 200 (body %s)", resp.StatusCode, data)
	}
	_, want := postJSON(t, fresh.URL+"/solve", good)
	if !bytes.Equal(data, want) {
		t.Fatalf("solve after a panic differs from a fresh server's:\n  got:  %s\n  want: %s", data, want)
	}
	if created, reused := s.pool.counts(); created != 3 || reused != 0 {
		t.Fatalf("pool counts: created=%d reused=%d, want 3 created / 0 reused (panicked sessions are dropped)", created, reused)
	}
}
