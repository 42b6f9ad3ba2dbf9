package server

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/engine"
)

// FuzzPrepare draws a parameter map over the compute routes'
// vocabulary, with arbitrary values, and runs it through each route's
// prepare function — the one parser behind /v1/bounds, /v1/verify,
// /v1/simulate, /v1/sweep and the batch items. No prepare may panic,
// and every call that prepares has a known admission class and keeps
// the parameters its route reads inside the server caps (1 <= m <=
// maxM; k, f and kmax at most Config.MaxKMax).
func FuzzPrepare(f *testing.F) {
	f.Add("2", "3", "1", "", "5000", "", "", "", "", "", "", "")
	f.Add("2", "", "", "8", "", "", "", "", "", "", "", "")
	f.Add("3", "", "", "6", "1e4", "", "", "", "", "crash", "", "rays")
	f.Add("1", "1", "0", "", "20", "3", "0.25", "7", "500", "pfaulty-halfline", "", "")
	f.Add("2", "5", "1", "", "10", "4", "", "", "", "shoreline", "deadbeef", "")
	f.Add("64", "16", "16", "16", "1e8", "128", "0.99", "", "", "byzantine", "", "line")
	f.Add("9223372036854775807", "3", "1", "", "", "", "", "", "", "", "", "")
	f.Add("2", "17", "8", "17", "2", "2", "NaN", "-1", "-5", "evacuation", "", "pie")
	srv := New(Config{Engine: engine.New(1)})
	routes := []struct {
		name    string
		prepare func(*Server, map[string]string) (call, error)
		reads   []string // the capped parameters the route reads
	}{
		{"bounds", (*Server).boundsCall, []string{"m", "k", "f", "kmax"}},
		{"verify", (*Server).verifyCall, []string{"m", "k", "f"}},
		{"simulate", (*Server).simulateCall, []string{"m", "k", "f"}},
		{"sweep", (*Server).sweepCall, []string{"m", "kmax"}},
	}
	f.Fuzz(func(t *testing.T, m, k, fv, kmax, horizon, points, pr, seed, samples, model, strategy, table string) {
		p := make(map[string]string)
		for key, v := range map[string]string{
			"m": m, "k": k, "f": fv, "kmax": kmax, "horizon": horizon, "points": points, "p": pr,
			"seed": seed, "samples": samples, "model": model, "strategy": strategy, "table": table,
		} {
			if v != "" {
				p[key] = v
			}
		}
		for _, route := range routes {
			c, err := route.prepare(srv, p)
			if err != nil {
				continue
			}
			if !slices.Contains(admissionClasses, c.class) {
				t.Fatalf("%s %v prepared with unknown class %q", route.name, p, c.class)
			}
			for _, key := range route.reads {
				raw, ok := p[key]
				if !ok {
					continue
				}
				v, err := strconv.Atoi(raw)
				if err != nil {
					t.Fatalf("%s %v prepared with unparsable %s", route.name, p, key)
				}
				limit := srv.cfg.MaxKMax
				if key == "m" {
					limit = maxM
				}
				if v > limit || key == "m" && v < 1 {
					t.Fatalf("%s %v prepared with %s = %d outside the cap %d", route.name, p, key, v, limit)
				}
			}
		}
	})
}
