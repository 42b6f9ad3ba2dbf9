package pfaulty_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/pfaulty"
)

// pinnedRows are MonteCarloRatio answers recorded as float64 bits from
// the math.Log inverse-transform sampler, before the sampler drew the
// pass number from a bucket table. Each base is pfaulty.OptimalBase(p);
// x = 1 and x = b^3 (math.Pow) lie on the turning lattice, 7.5 and 50
// lie off it. A sampler change that moves any answer by one bit fails
// here, independently of the 9-digit E13 table.
var pinnedRows = []struct {
	b, p, x float64
	samples int
	seed    int64
	bits    uint64
}{
	{5.411632166939896, 0.05, 1, 16, 1, 0x3ff740e8bc041108},                    // on the lattice
	{5.411632166939896, 0.05, 1, 500, 7, 0x3ff740e8bc041108},                   // on the lattice
	{5.411632166939896, 0.05, 1, 20000, 23, 0x3ff760c9185c5b91},                // on the lattice
	{5.411632166939896, 0.05, 158.4837755162043, 16, 4242, 0x3ff740e8bc041108}, // on the lattice
	{5.411632166939896, 0.05, 158.4837755162043, 500, 1, 0x3ff761ad57a9f45c},   // on the lattice
	{5.411632166939896, 0.05, 158.4837755162043, 20000, 7, 0x3ff754fac1c012ab}, // on the lattice
	{5.411632166939896, 0.05, 7.5, 16, 23, 0x400bf8a4321dd721},
	{5.411632166939896, 0.05, 7.5, 500, 4242, 0x4008acab1d047c29},
	{5.411632166939896, 0.05, 7.5, 20000, 1, 0x40087f44cc51ea86},
	{5.411632166939896, 0.05, 50, 16, 7, 0x40037ee65165ca24},
	{5.411632166939896, 0.05, 50, 500, 23, 0x40052979a97a189a},
	{5.411632166939896, 0.05, 50, 20000, 4242, 0x40054fa56aceb0a7},
	{2.666666689459229, 0.25, 1, 16, 1, 0x400299999765bc0b},                     // on the lattice
	{2.666666689459229, 0.25, 1, 500, 7, 0x4003ab596bdda5c3},                    // on the lattice
	{2.666666689459229, 0.25, 1, 20000, 23, 0x400344dbb835b548},                 // on the lattice
	{2.666666689459229, 0.25, 18.962963449204295, 16, 4242, 0x400199999765bc0b}, // on the lattice
	{2.666666689459229, 0.25, 18.962963449204295, 500, 1, 0x40036ab938e29d03},   // on the lattice
	{2.666666689459229, 0.25, 18.962963449204295, 20000, 7, 0x400325eef88123f4}, // on the lattice
	{2.666666689459229, 0.25, 7.5, 16, 23, 0x4014316e212ec72e},
	{2.666666689459229, 0.25, 7.5, 500, 4242, 0x401509fc726843ed},
	{2.666666689459229, 0.25, 7.5, 20000, 1, 0x4014b32c19676a62},
	{2.666666689459229, 0.25, 50, 16, 7, 0x4001be3c8cb471d0},
	{2.666666689459229, 0.25, 50, 500, 23, 0x40033e69a58db7d5},
	{2.666666689459229, 0.25, 50, 20000, 4242, 0x40035e1f578f1668},
	{1.7836116242604634, 0.5, 1, 16, 1, 0x401019d7850b3030},                    // on the lattice
	{1.7836116242604634, 0.5, 1, 500, 7, 0x4013721e89e8d5f6},                   // on the lattice
	{1.7836116242604634, 0.5, 1, 20000, 23, 0x4012f1935392ba1d},                // on the lattice
	{1.7836116242604634, 0.5, 5.674150912081094, 16, 4242, 0x400f6b14449b6990}, // on the lattice
	{1.7836116242604634, 0.5, 5.674150912081094, 500, 1, 0x4012b45205564bd2},   // on the lattice
	{1.7836116242604634, 0.5, 5.674150912081094, 20000, 7, 0x4012a9e22efb2f16}, // on the lattice
	{1.7836116242604634, 0.5, 7.5, 16, 23, 0x4019c0466033cb25},
	{1.7836116242604634, 0.5, 7.5, 500, 4242, 0x401964cd4e0220b6},
	{1.7836116242604634, 0.5, 7.5, 20000, 1, 0x40191fd932e33400},
	{1.7836116242604634, 0.5, 50, 16, 7, 0x4012a51c65319b6e},
	{1.7836116242604634, 0.5, 50, 500, 23, 0x4014d7400859bfa1},
	{1.7836116242604634, 0.5, 50, 20000, 4242, 0x401564c7f4b3963c},
	{1.1080353688619533, 0.9, 1, 16, 1, 0x403c65eca4d1ce54},                     // on the lattice
	{1.1080353688619533, 0.9, 1, 500, 7, 0x4042d512a40197d9},                    // on the lattice
	{1.1080353688619533, 0.9, 1, 20000, 23, 0x40424811893624e3},                 // on the lattice
	{1.1080353688619533, 0.9, 1.3603819793938463, 16, 4242, 0x403c26991589245c}, // on the lattice
	{1.1080353688619533, 0.9, 1.3603819793938463, 500, 1, 0x4041e9cd08989cae},   // on the lattice
	{1.1080353688619533, 0.9, 1.3603819793938463, 20000, 7, 0x4041e3f807b597d0}, // on the lattice
	{1.1080353688619533, 0.9, 7.5, 16, 23, 0x40433b2ab8f68b8c},
	{1.1080353688619533, 0.9, 7.5, 500, 4242, 0x4043b8f4196500cb},
	{1.1080353688619533, 0.9, 7.5, 20000, 1, 0x40432216f8448c7b},
	{1.1080353688619533, 0.9, 50, 16, 7, 0x40400cb6ea926947},
	{1.1080353688619533, 0.9, 50, 500, 23, 0x40432712dc6d07dd},
	{1.1080353688619533, 0.9, 50, 20000, 4242, 0x4043c598706a4152},
	{1.0100755036966689, 0.99, 1, 16, 1, 0x40735370f28cb121},                    // on the lattice
	{1.0100755036966689, 0.99, 1, 500, 7, 0x4079c0efb88acf80},                   // on the lattice
	{1.0100755036966689, 0.99, 1, 20000, 23, 0x40790e8ff15fb2d9},                // on the lattice
	{1.0100755036966689, 0.99, 1.030532081236795, 16, 4242, 0x40732922e08ec21c}, // on the lattice
	{1.0100755036966689, 0.99, 1.030532081236795, 500, 1, 0x40787cbbe27d55ec},   // on the lattice
	{1.0100755036966689, 0.99, 1.030532081236795, 20000, 7, 0x40787c5fe87fdd1f}, // on the lattice
	{1.0100755036966689, 0.99, 7.5, 16, 23, 0x407960b2509adf9b},
	{1.0100755036966689, 0.99, 7.5, 500, 4242, 0x407a1fdaa0d97365},
	{1.0100755036966689, 0.99, 7.5, 20000, 1, 0x40795c6286122e28},
	{1.0100755036966689, 0.99, 50, 16, 7, 0x40741575d179e187},
	{1.0100755036966689, 0.99, 50, 500, 23, 0x40782a74154c07a7},
	{1.0100755036966689, 0.99, 50, 20000, 4242, 0x4079036ca8437208},
}

func TestMonteCarloRatioBitsPinned(t *testing.T) {
	for _, r := range pinnedRows {
		v, err := pfaulty.MonteCarloRatio(context.Background(), r.b, r.p, r.x, r.samples, rand.New(rand.NewSource(r.seed)))
		if err != nil {
			t.Fatalf("b=%v p=%v x=%v n=%d seed=%d: %v", r.b, r.p, r.x, r.samples, r.seed, err)
		}
		if got := math.Float64bits(v); got != r.bits {
			t.Errorf("b=%v p=%v x=%v n=%d seed=%d: bits %#016x (%v), pinned %#016x (%v)",
				r.b, r.p, r.x, r.samples, r.seed, got, v, r.bits, math.Float64frombits(r.bits))
		}
	}
	// One row through the engine job, which seeds its own rng.
	job := engine.PFaultyTrials{Base: 2.5405494675324602, P: 0.275, X: 7.5, Samples: 20000, Seed: 23}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(res.Value), uint64(0x4013b381d7001332); got != want {
		t.Errorf("engine.PFaultyTrials: bits %#016x (%v), pinned %#016x", got, res.Value, want)
	}
}
