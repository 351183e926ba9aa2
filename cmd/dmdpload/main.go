// Command dmdpload is the load generator and correctness prober for the
// dmdpd daemon. It fires simulation jobs at a running daemon — zipf-
// skewed over a (benchmark x model) working set, from several tenants,
// optionally laced with chaos (worker panics, unmeetable deadlines,
// fault-injected runs) — and verifies the service invariants from the
// outside:
//
//   - exactly-once: every request terminates with exactly one classified
//     outcome; none hang, none vanish;
//   - no wrong bits: every 200 for the same (workload, config, budget)
//     carries the same stats_sha256, and with -verify each is checked
//     byte-for-byte against a direct in-process simulation;
//   - graceful degradation: sheds (429/503) and failures (500/504) are
//     counted, never fatal.
//
// Usage:
//
//	dmdpload -addr http://localhost:8080 -n 200 -c 16
//	dmdpload -n 500 -zipf 1.4 -tenants 4 -verify
//	dmdpload -n 300 -chaos          # needs a daemon started with -chaos
//
// Exit status: 0 when every invariant held, 1 otherwise.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dmdp/internal/cliutil"
	"dmdp/internal/config"
	"dmdp/internal/experiments"
	"dmdp/internal/sched"
)

type outcome struct {
	status  int
	kind    string
	key     string // workload/model/config digest on 200
	sha     string
	deduped bool
	latency time.Duration
	err     error // transport-level failure
}

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "daemon base URL")
		n       = flag.Int("n", 100, "total requests")
		c       = flag.Int("c", 8, "concurrent requesters")
		benchCS = flag.String("bench", "hmmer,bzip2,gcc,milc,mcf,lbm", "benchmark working set (comma-separated)")
		modelCS = flag.String("models", "baseline,nosq,dmdp,perfect", "model working set (comma-separated)")
		instr   = flag.String("instr", "50k", "instruction budget per job")
		zipfS   = flag.Float64("zipf", 1.2, "zipf skew over the working set (>1; larger = more head-heavy)")
		tenants = flag.Int("tenants", 3, "number of synthetic tenants")
		seed    = flag.Int64("seed", 1, "workload-mix seed (reproducible runs)")
		chaos   = flag.Bool("chaos", false, "mix in chaos jobs: worker panics, 1ms deadlines, fault injection")
		verify  = flag.Bool("verify", false, "after the run, re-simulate each observed result locally and compare bits")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
	)
	flag.Parse()

	budget, err := cliutil.ParseInstr(*instr)
	if err != nil {
		fatal(fmt.Errorf("-instr: %w", err))
	}
	benches := strings.Split(*benchCS, ",")
	models := strings.Split(*modelCS, ",")
	working := make([][2]string, 0, len(benches)*len(models))
	for _, b := range benches {
		for _, m := range models {
			working = append(working, [2]string{strings.TrimSpace(b), strings.TrimSpace(m)})
		}
	}
	if *zipfS <= 1 {
		fatal(fmt.Errorf("-zipf must be > 1"))
	}

	// Pre-plan every request so the mix is a pure function of -seed:
	// workers then just fire plan[i], and reruns are comparable.
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(working)-1))
	type plannedJob struct {
		body map[string]any
	}
	plan := make([]plannedJob, *n)
	for i := range plan {
		pick := working[zipf.Uint64()]
		body := map[string]any{
			"bench":  pick[0],
			"model":  pick[1],
			"budget": fmt.Sprint(budget),
			"tenant": fmt.Sprintf("tenant-%d", rng.Intn(*tenants)),
		}
		if *chaos {
			switch r := rng.Float64(); {
			case r < 0.15:
				body["chaos_panic"] = true
			case r < 0.25:
				body["deadline_ms"] = 1
				body["budget"] = fmt.Sprint(budget * 100)
			case r < 0.35:
				body["flip_rate"] = 0.01
				body["fault_seed"] = int64(i + 1)
			}
		}
		plan[i] = plannedJob{body: body}
	}

	client := &http.Client{Timeout: *timeout}
	outcomes := make([]outcome, *n)
	start := time.Now()
	// The daemon's own scheduling primitive drives the fan-out.
	sched.Pool(*c, *n, func(i int) {
		outcomes[i] = fire(client, *addr, plan[i].body)
	})
	elapsed := time.Since(start)

	// Classify and check invariants.
	var ok, dedup, shed429, shed503, panics, deadline504, failed500, transport, unclass int
	byKey := map[string]string{}
	var latencies []time.Duration
	bad := false
	for i, oc := range outcomes {
		if oc.err != nil {
			transport++
			fmt.Fprintf(os.Stderr, "dmdpload: request %d: %v\n", i, oc.err)
			continue
		}
		latencies = append(latencies, oc.latency)
		switch oc.status {
		case http.StatusOK:
			ok++
			if oc.deduped {
				dedup++
			}
			if prev, seen := byKey[oc.key]; seen && prev != oc.sha {
				bad = true
				fmt.Fprintf(os.Stderr, "dmdpload: WRONG BITS: key %s returned %s and %s\n", oc.key, prev, oc.sha)
			}
			byKey[oc.key] = oc.sha
		case http.StatusTooManyRequests:
			shed429++
		case http.StatusServiceUnavailable:
			shed503++
		case http.StatusGatewayTimeout:
			deadline504++
		case http.StatusInternalServerError:
			if oc.kind == "panic" {
				panics++
			} else {
				failed500++
			}
		default:
			unclass++
			bad = true
			fmt.Fprintf(os.Stderr, "dmdpload: request %d: unclassified status %d (%s)\n", i, oc.status, oc.kind)
		}
	}
	accounted := ok + shed429 + shed503 + deadline504 + panics + failed500 + transport + unclass
	if accounted != *n {
		bad = true
		fmt.Fprintf(os.Stderr, "dmdpload: LOST JOBS: %d fired, %d accounted\n", *n, accounted)
	}

	fmt.Printf("requests        %d in %.2fs (%.1f/s, concurrency %d)\n",
		*n, elapsed.Seconds(), float64(*n)/elapsed.Seconds(), *c)
	fmt.Printf("ok              %d (%d served deduped)\n", ok, dedup)
	fmt.Printf("shed            %d rate/queue (429), %d draining (503)\n", shed429, shed503)
	fmt.Printf("deadline        %d (504)\n", deadline504)
	fmt.Printf("panics isolated %d (500/panic)\n", panics)
	fmt.Printf("other failures  %d (500), %d transport, %d unclassified\n", failed500, transport, unclass)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) time.Duration {
			idx := int(p * float64(len(latencies)-1))
			return latencies[idx]
		}
		fmt.Printf("latency         p50 %s  p90 %s  p99 %s  max %s\n",
			pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
			pct(0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
	}
	fmt.Printf("distinct runs   %d\n", len(byKey))

	if *verify {
		mismatches := verifyBits(byKey, budget)
		if mismatches > 0 {
			bad = true
		}
		fmt.Printf("verified        %d results against direct simulation, %d mismatches\n", len(byKey), mismatches)
	}
	if bad {
		fmt.Println("RESULT: FAIL (invariant violated; see stderr)")
		os.Exit(1)
	}
	fmt.Println("RESULT: OK (exactly-once, no wrong bits)")
}

// fire submits one job and classifies the response.
func fire(client *http.Client, addr string, body map[string]any) outcome {
	b, _ := json.Marshal(body)
	start := time.Now()
	resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	oc := outcome{status: resp.StatusCode, latency: time.Since(start)}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		oc.err = fmt.Errorf("decode (%d): %w", resp.StatusCode, err)
		return oc
	}
	oc.kind, _ = out["kind"].(string)
	if resp.StatusCode == http.StatusOK {
		oc.sha, _ = out["stats_sha256"].(string)
		oc.deduped, _ = out["deduped"].(bool)
		w, _ := out["workload"].(string)
		m, _ := out["model"].(string)
		d, _ := out["config_digest"].(string)
		oc.key = w + "/" + m + "/" + d
	}
	return oc
}

// verifyBits re-simulates every observed clean result in-process and
// compares canonical encodings. Fault-injected runs have their own
// config digests; they were already cross-checked among themselves by
// the byKey consistency pass, and are skipped here (the local runner
// would reproduce them too, but the point of -verify is the clean path).
func verifyBits(byKey map[string]string, budget int64) int {
	r := experiments.NewRunner(experiments.Options{Budget: budget, Parallel: true})
	mismatches := 0
	for key, sha := range byKey {
		parts := strings.SplitN(key, "/", 3)
		if len(parts) != 3 || strings.HasPrefix(parts[0], "inline:") {
			continue
		}
		model, err := config.ParseModel(parts[1])
		if err != nil {
			continue
		}
		cfg := config.Default(model)
		if cfg.Digest().String() != parts[2] {
			continue // non-default config (chaos fault injection): skip
		}
		st, err := r.Run(parts[0], cfg, parts[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmdpload: verify %s: %v\n", key, err)
			mismatches++
			continue
		}
		enc := st.MarshalCanonical()
		if got := shaHex(enc); got != sha {
			fmt.Fprintf(os.Stderr, "dmdpload: verify %s: daemon %s, direct %s\n", key, sha, got)
			mismatches++
		}
	}
	return mismatches
}

func shaHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmdpload:", err)
	os.Exit(1)
}
