package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// variants is how many input variants a seed selects among. The seed
// fixes a variant (seed mod variants) and every draw the run makes, so
// the same seed always yields the same inputs, and every variant has
// its outputs recorded in golden.json.
const variants = 16

//go:embed golden.json
var goldenJSON []byte

// goldens are the recorded output digests, keyed by scale, variant and
// input. They are self-referential: they pin the model's outputs as of
// the recording, not agreement with real hardware.
type goldens struct {
	// Campaign maps "<scale>/<variant>/<rotation index>" to the campaign
	// digest.
	Campaign map[string]string `json:"campaign"`
	// Sweep maps "<scale>" to the cold-pass digest.
	Sweep map[string]string `json:"sweep"`
	// Serve maps "<scale>/<machine>|<benchmark>" to the Stats digest.
	Serve map[string]string `json:"serve"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func (g *goldens) campaign(scale string, v, c int) string {
	return g.Campaign[fmt.Sprintf("%s/%d/%d", scale, v, c)]
}

func (g *goldens) sweep(scale string) string { return g.Sweep[scale] }

func (g *goldens) serve(scale, key string) string { return g.Serve[scale+"/"+key] }

// digestJSON is the short SHA-256 of v's JSON encoding.
func digestJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// record recomputes every digest at every scale and writes them to
// path. It runs each input once, on fresh Suites, through the same
// entry points the workloads use.
func record(ctx context.Context, path string, nproc int) error {
	g := goldens{Campaign: map[string]string{}, Sweep: map[string]string{}, Serve: map[string]string{}}
	names := make([]string, 0, len(scales))
	for name := range scales {
		names = append(names, name)
	}
	sort.Strings(names)
	opt := sim.Options{Parallelism: nproc}
	for _, name := range names {
		sc := scales[name]
		fmt.Fprintf(os.Stderr, "recording %s scale\n", name)

		var (
			mu   sync.Mutex
			wg   sync.WaitGroup
			errs []error
			sem  = make(chan struct{}, nproc)
		)
		for v := 0; v < variants; v++ {
			for c := range campaignConfigs {
				wg.Add(1)
				sem <- struct{}{}
				go func(v, c int) {
					defer func() { <-sem; wg.Done() }()
					res, err := campaign.New(sim.NewSuite(opt)).Run(ctx, campaignSpec(sc, v, c), nil)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						errs = append(errs, err)
						return
					}
					g.Campaign[fmt.Sprintf("%s/%d/%d", name, v, c)] = campaignDigest(res)
				}(v, c)
			}
		}
		wg.Wait()
		if len(errs) > 0 {
			return errs[0]
		}

		// Every result carries its Suite's options, so the sweep is
		// recorded with the options its body runs with.
		suite := sim.NewSuite((&env{}).simOptions())
		res, err := explore.New(suite).Run(ctx, sweepSpec(sc), nil)
		if err != nil {
			return err
		}
		g.Sweep[name] = sweepDigest(res, suite.Results())

		keys, err := serveKeys()
		if err != nil {
			return err
		}
		serveOpt := sim.Options{WarmupInstrs: sc.ServeWarmup, MeasureInstrs: sc.ServeMeasure, Parallelism: nproc}
		ssuite := sim.NewSuite(serveOpt)
		var machines []config.Machine
		seen := map[string]bool{}
		for _, k := range keys {
			if !seen[k.Machine] {
				seen[k.Machine] = true
				m, err := config.ByName(k.Machine)
				if err != nil {
					return err
				}
				machines = append(machines, m)
			}
		}
		profiles := []trace.Profile(workload.All())
		if err := ssuite.Batch(ctx, machines, profiles); err != nil {
			return err
		}
		for _, k := range keys {
			m, _ := config.ByName(k.Machine)
			p, _ := workload.ByName(k.Benchmark)
			r, ok := ssuite.Lookup(m, p)
			if !ok {
				return fmt.Errorf("recording %s: no result", k)
			}
			g.Serve[name+"/"+k.String()] = digestJSON(r.Stats)
		}
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
