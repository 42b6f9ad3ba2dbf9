// strategies.go is the user-programmable strategy surface of boundsd:
//
//	POST /v1/strategies   {"script": "<DSL function body>"}
//
// compiles the script in the sandboxed strategy-program DSL
// (internal/strategy/program) and registers the compiled program in a
// bounded in-memory store under its content hash. The hash — returned
// to the client — is then accepted as ?strategy=<hash> by /v1/bounds,
// /v1/verify and the /v1/batch bounds/verify ops, which evaluate the
// scripted strategy (instantiated at the request's m, k, f with the
// optimal base alpha*) through the exact crash-fault adversary, under
// the same cache, budget and admission machinery as the built-ins. The
// engine cache keys on the program's content hash, so identical scripts
// registered by different clients — or re-registered after an eviction
// — share cached evaluations.
//
// Compilation is admission-classified heavy (a compile parses and
// compiles untrusted input), and execution is sandboxed by the DSL
// itself: gas-metered evaluation, a hard per-robot round cap, no FFI
// beyond whitelisted math. A runaway script costs its gas budget and
// answers 400, never a wedged worker.
package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/registry"
	"repro/internal/strategy/program"
)

// Strategy store bounds. The store is a cache, not a database: clients
// must be prepared to re-register after an eviction (registration is
// idempotent and cheap relative to evaluation).
const (
	// MaxScriptBytes caps one submitted script.
	MaxScriptBytes = 16 << 10
	// MaxStoredStrategies caps the programs resident in the store;
	// the least recently used is evicted past it.
	MaxStoredStrategies = 256
)

// StrategiesAnswer is the /v1/strategies response payload.
type StrategiesAnswer struct {
	// Hash is the program's content hash — the handle for
	// ?strategy= parameters and the engine cache identity.
	Hash string `json:"hash"`
	// Cached reports that an identical program (same canonical IR)
	// was already registered.
	Cached bool `json:"cached"`
	// SourceBytes is the size of the submitted script.
	SourceBytes int `json:"source_bytes"`
	// Nodes is the compiled program's IR size.
	Nodes int `json:"nodes"`
}

// strategyStore is the bounded LRU map from content hash to compiled
// program.
type strategyStore struct {
	mu     sync.Mutex
	lru    *list.List // of *program.Program, front = most recent
	byHash map[string]*list.Element
}

func newStrategyStore() *strategyStore {
	return &strategyStore{lru: list.New(), byHash: make(map[string]*list.Element)}
}

// put registers a compiled program, reporting whether it was already
// resident, and evicts the least-recently-used past the cap.
func (st *strategyStore) put(p *program.Program) (cached bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byHash[p.Hash()]; ok {
		st.lru.MoveToFront(el)
		return true
	}
	st.byHash[p.Hash()] = st.lru.PushFront(p)
	for st.lru.Len() > MaxStoredStrategies {
		el := st.lru.Back()
		st.lru.Remove(el)
		delete(st.byHash, el.Value.(*program.Program).Hash())
	}
	return false
}

// get resolves a content hash to its program (marking it recently
// used), or nil.
func (st *strategyStore) get(hash string) *program.Program {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byHash[hash]
	if !ok {
		return nil
	}
	st.lru.MoveToFront(el)
	return el.Value.(*program.Program)
}

// len reports the resident program count.
func (st *strategyStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// handleStrategies is the POST /v1/strategies endpoint.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, errors.New("strategy registration must be POSTed"))
		return
	}
	p, err := queryParams(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var body struct {
		Script string `json:"script"`
	}
	if err := decodeBody(r.Body, &body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: want {\"script\": \"...\"}: %w", err))
		return
	}
	if body.Script == "" {
		s.strategyRejects.Add(1)
		writeErr(w, http.StatusBadRequest, errors.New("empty script"))
		return
	}
	if len(body.Script) > MaxScriptBytes {
		s.strategyRejects.Add(1)
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("script is %d bytes, limit %d", len(body.Script), MaxScriptBytes))
		return
	}
	// Compiling parses untrusted input: classify it heavy so a compile
	// flood contends with the Monte-Carlo pool, not with analytic
	// traffic, and is shed with 429 under overload.
	if v, ok := s.compute(w, r, p, registry.CostMonteCarlo, func(ctx context.Context) (any, error) {
		prog, err := program.Compile(body.Script)
		if err != nil {
			return nil, err
		}
		cached := s.strategies.put(prog)
		if !cached {
			s.strategyCompiles.Add(1)
		}
		return &StrategiesAnswer{
			Hash:        prog.Hash(),
			Cached:      cached,
			SourceBytes: len(body.Script),
			Nodes:       prog.Nodes(),
		}, nil
	}); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// scriptedStrategy resolves a ?strategy=<hash> parameter to an
// instantiated program for the request's (m, k, f). Returns nil when
// the parameter is absent. Scripted strategies are evaluated by the
// exact crash-fault adversary, so any other model is rejected.
func (s *Server) scriptedStrategy(p map[string]string, sc registry.Scenario, m, k, f int) (*program.Instance, error) {
	hash := p["strategy"]
	if hash == "" {
		return nil, nil
	}
	if sc.Name != "crash" {
		return nil, fmt.Errorf("%w: scripted strategies are evaluated by the crash-fault adversary; model %q does not accept strategy=", errBadParam, sc.Name)
	}
	prog := s.strategies.get(hash)
	if prog == nil {
		return nil, fmt.Errorf("%w: unknown strategy %q (register the script via POST /v1/strategies; the store is bounded, so an evicted program must be re-registered)", errBadParam, hash)
	}
	return prog.New(m, k, f)
}

// noteStrategyErr feeds the strategy error counters from the compute
// error paths (single endpoints and batch rows alike).
func (s *Server) noteStrategyErr(err error) {
	if errors.Is(err, program.ErrGasExhausted) {
		s.strategyGasExhausted.Add(1)
	}
	if errors.Is(err, program.ErrCompile) {
		s.strategyRejects.Add(1)
	}
}
