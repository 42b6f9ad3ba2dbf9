package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/strategy/program"
)

// workload is one traffic mix the benchmark drives at boundsd.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json carries the
	// same sentence.
	why string
	// rate is the open loop's offered rate in requests per second; 0
	// selects a closed loop of GOMAXPROCS callers, each waiting for its
	// answer before it sends again.
	rate float64
	// flags are the extra boundsd flags.
	flags []string
	// plan derives request i from the seeded inputs.
	plan func(in *inputs, i int) loadgen.Plan
	// warm runs after /readyz answers 200 and counts toward set-up
	// time; nil means none.
	warm func(ctx context.Context, c *http.Client, base string, in *inputs) error
}

var workloads = []*workload{
	{
		name: "serve-hot",
		why: "open loop of the default loadgen mix against a precomputed boundsd: cache hits dominate, " +
			"so the handler, encoder, transport and cache-hit path do the work and the kernel almost none",
		rate:  1000,
		flags: []string{"-precompute"},
		plan:  func(in *inputs, i int) loadgen.Plan { return in.sampler.Plan(i) },
	},
	{
		name: "sweep-cold",
		why: "closed loop of NDJSON sweeps and scripted verifies at unique horizons: every cell misses the cache, " +
			"so the adversary kernel, the script VM and LRU eviction do the work",
		plan: sweepColdPlan,
		warm: registerOverHTTP,
	},
	{
		name: "montecarlo-flood",
		why: "open loop of Monte-Carlo simulations above the one heavy slot beside closed-form lookups: " +
			"simulators, solver-memo misses and admission shedding carry the load",
		rate: 500,
		// One engine worker and one heavy slot: an admitted simulation
		// holds one of the two CPUs, and a second one arriving while it
		// runs waits at most 2ms before it is shed.
		flags: []string{"-workers", "1", "-max-inflight-heavy", "1", "-shed-after", "2ms"},
		plan:  floodPlan,
	},
}

// precompute reports whether the workload's boundsd runs -precompute;
// the traced replay warms its in-process servers the same way.
func (w *workload) precompute() bool { return slices.Contains(w.flags, "-precompute") }

// workloadNamed returns the named workload, or nil.
func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// scriptTemplate is the paper's cyclic-exponential covering in the
// strategy-program DSL with a turn multiplier slot. A multiplier >= 1
// scales every turn up, which only adds coverage, so each variant is a
// valid strategy with its own content hash.
const scriptTemplate = `q := m * (f + 1)
stop := log(horizon)/log(alpha) + (q + k*m)
base := m * (r + 1)
l := 1 - 2*m
e := k*l + base
step := pow(alpha, k)
turn := pow(alpha, e) * %s
for e <= stop {
	emit(mod(l-1, m)+1, turn)
	turn = turn * step
	l = l + 1
	e = k*l + base
}
`

// inputs derives every request of a run from the workload and the seed
// alone, so boundsd receives only generated inputs and a seed replays
// the same requests. plan is safe for concurrent use; compile is called
// from one goroutine only.
type inputs struct {
	w       *workload
	seed    int64
	sampler *loadgen.Sampler
	triples [][3]int // crash search-regime (m, k, f) of the loadgen pools
	// scripts are the strategy programs sweep-cold registers during
	// set-up; hashes[i] is the content hash of scripts[i].
	scripts []string
	hashes  []string
	progs   map[string]*program.Program // every script compiled so far, by hash
}

func newInputs(w *workload, seed int64) *inputs {
	mix, err := loadgen.ParseMix(loadgen.DefaultMixSpec)
	if err != nil {
		panic("perfbench: loadgen default mix: " + err.Error())
	}
	in := &inputs{
		w:       w,
		seed:    seed,
		sampler: loadgen.NewSampler(seed, mix),
		triples: loadgen.DefaultPools().Triples(),
		progs:   make(map[string]*program.Program),
	}
	rng := rand.New(rand.NewSource(seed))
	for _, j := range rng.Perm(16)[:4] {
		script := fmt.Sprintf(scriptTemplate, formatFloat(1+float64(j)/64))
		prog, err := in.compile(script)
		if err != nil {
			panic("perfbench: script template: " + err.Error())
		}
		in.scripts = append(in.scripts, script)
		in.hashes = append(in.hashes, prog.Hash())
	}
	return in
}

// compile compiles a strategy script and remembers it by content hash.
func (in *inputs) compile(script string) (*program.Program, error) {
	prog, err := program.Compile(script)
	if err != nil {
		return nil, err
	}
	in.progs[prog.Hash()] = prog
	return prog, nil
}

// program returns the compiled script with the given hash, or nil.
func (in *inputs) program(hash string) *program.Program { return in.progs[hash] }

// rng returns request i's private generator.
func (in *inputs) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(in.seed)*0x9e3779b97f4a7c15 + uint64(i)))))
}

// plan derives request i.
func (in *inputs) plan(i int) loadgen.Plan { return in.w.plan(in, i) }

// sweepColdPlan draws an NDJSON sweep (three in four requests) or a
// verify of a script registered during set-up, each at a horizon drawn
// log-uniformly, so no two requests share a cache key.
func sweepColdPlan(in *inputs, i int) loadgen.Plan {
	rng := in.rng(i)
	q := url.Values{}
	if rng.Intn(4) == 0 {
		t := in.triples[rng.Intn(len(in.triples))]
		q.Set("m", strconv.Itoa(t[0]))
		q.Set("k", strconv.Itoa(t[1]))
		q.Set("f", strconv.Itoa(t[2]))
		q.Set("horizon", formatFloat(logUniform(rng, 1e4, 1e8)))
		q.Set("strategy", in.hashes[rng.Intn(len(in.hashes))])
		return loadgen.Plan{Index: i, Op: loadgen.OpVerify, Method: http.MethodGet, Path: "/v1/verify?" + q.Encode()}
	}
	q.Set("m", strconv.Itoa(2+rng.Intn(3)))
	q.Set("kmax", strconv.Itoa(8+rng.Intn(5)))
	q.Set("horizon", formatFloat(logUniform(rng, 1e4, 1e8)))
	q.Set("format", "ndjson")
	return loadgen.Plan{Index: i, Op: loadgen.OpSweep, Method: http.MethodGet, Path: "/v1/sweep?" + q.Encode(), Stream: true}
}

// shorelineKFs are the (k, f) pairs of shoreline simulations, each in
// the planar regime k > 2(f+1).
var shorelineKFs = [][2]int{{5, 1}, {7, 2}, {9, 3}}

// floodPlan draws a closed-form /v1/bounds lookup (17 requests in 20)
// or a simulation (one in 20 each): pfaulty-halfline with a continuous
// p and a unique seed, shoreline or evacuation-line at a unique
// horizon. The simulations hold one CPU while the lookups share the
// other with the driver, so the lookups' upper quartile moves with
// whatever else the box runs; with this share the median of all
// requests lies near the lookups' own median, which does not. The
// simulations are large enough that the few of them still offer more
// work than the heavy slot serves.
func floodPlan(in *inputs, i int) loadgen.Plan {
	rng := in.rng(i)
	q := url.Values{}
	x := rng.Intn(20)
	if x < 17 {
		k := 1 + rng.Intn(8)
		q.Set("m", strconv.Itoa(1+rng.Intn(3)))
		q.Set("k", strconv.Itoa(k))
		q.Set("f", strconv.Itoa(rng.Intn(k)))
		return loadgen.Plan{Index: i, Op: loadgen.OpBounds, Method: http.MethodGet, Path: "/v1/bounds?" + q.Encode()}
	}
	switch x {
	case 17:
		q.Set("model", "pfaulty-halfline")
		q.Set("m", "1")
		q.Set("k", "1")
		q.Set("f", "0")
		q.Set("p", formatFloat(0.05+0.45*rng.Float64()))
		q.Set("seed", strconv.FormatInt(1+rng.Int63n(1<<40), 10))
		q.Set("horizon", formatFloat(logUniform(rng, 1e3, 1e5)))
		q.Set("samples", strconv.Itoa(registry.MaxSamples))
		q.Set("points", strconv.Itoa(36+rng.Intn(25)))
	case 18:
		kf := shorelineKFs[rng.Intn(len(shorelineKFs))]
		q.Set("model", "shoreline")
		q.Set("m", "2")
		q.Set("k", strconv.Itoa(kf[0]))
		q.Set("f", strconv.Itoa(kf[1]))
		q.Set("horizon", formatFloat(logUniform(rng, 10, 1e4)))
		q.Set("points", strconv.Itoa(48+rng.Intn(49)))
	default:
		f := 1 + rng.Intn(2)
		q.Set("model", "evacuation-line")
		q.Set("m", "2")
		q.Set("k", strconv.Itoa(2*f+1))
		q.Set("f", strconv.Itoa(f))
		q.Set("horizon", formatFloat(logUniform(rng, 10, 1e4)))
		q.Set("points", strconv.Itoa(24+rng.Intn(25)))
	}
	return loadgen.Plan{Index: i, Op: loadgen.OpSimulate, Method: http.MethodGet, Path: "/v1/simulate?" + q.Encode()}
}

// registerOverHTTP is sweep-cold's warm-up: it registers the run's
// strategy scripts with boundsd and requires boundsd to hash each one
// as an in-process compile does.
func registerOverHTTP(ctx context.Context, c *http.Client, base string, in *inputs) error {
	hashes, err := registerScripts(in.scripts, func(body []byte) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/strategies", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	})
	if err != nil {
		return err
	}
	for i, h := range hashes {
		if h != in.hashes[i] {
			return fmt.Errorf("boundsd hashed script %d as %s, an in-process compile gives %s", i, h, in.hashes[i])
		}
	}
	return nil
}

// registerOn registers scripts with the in-process handler h and
// returns their hashes.
func registerOn(h http.Handler, scripts []string) ([]string, error) {
	return registerScripts(scripts, func(body []byte) (int, []byte, error) {
		rec := serve(h, http.MethodPost, "/v1/strategies", body)
		return rec.Code, rec.Body.Bytes(), nil
	})
}

// registerScripts registers each script through post, which sends one
// POST /v1/strategies body and returns the status and answer, and
// returns the hashes the server gave them, in order.
func registerScripts(scripts []string, post func(body []byte) (int, []byte, error)) ([]string, error) {
	hashes := make([]string, len(scripts))
	for i, script := range scripts {
		body, err := json.Marshal(map[string]string{"script": script})
		if err != nil {
			return nil, err
		}
		status, data, err := post(body)
		if err != nil {
			return nil, fmt.Errorf("register script %d: %w", i, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("register script %d: status %d: %.200s", i, status, data)
		}
		var ans server.StrategiesAnswer
		if err := json.Unmarshal(data, &ans); err != nil {
			return nil, fmt.Errorf("register script %d: %w", i, err)
		}
		hashes[i] = ans.Hash
	}
	return hashes, nil
}

// scriptOf extracts the script of a /v1/strategies body.
func scriptOf(body []byte) string {
	var b struct {
		Script string `json:"script"`
	}
	_ = json.Unmarshal(body, &b) // a generated body always parses; "" otherwise
	return b.Script
}

// splitmix64 is one step of the SplitMix64 generator, used to
// decorrelate per-request seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// logUniform draws from [lo, hi] with a uniform logarithm.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// formatFloat renders a float the way query strings spell it.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
