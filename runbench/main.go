// Command runbench is the repository benchmark: it runs one seeded
// workload to quiescence through the public run/build entry points,
// repeatedly for a fixed time, checks every repetition's output against
// a centrally computed reference, and prints the end-to-end metrics
// (--trace 0) or the per-layer split (--trace 1) as the last line of its
// standard output. See README.md for the workloads and metrics.
//
//	bash runbench/run.sh --workload flood-ring --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	name := flag.String("workload", "", "workload name: gossip-random, flood-ring, stream-tc-lossy or tc-central")
	seed := flag.Int64("seed", 7, "workload seed; graph, input, schedule and channel seeds derive from it")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer split")
	flag.Parse()
	// One core: on a shared host, wall time with a second core in play
	// (parallel workers, or the GC running beside the mutator) swung
	// twice as far between runs as the CPU time did. On one core the
	// run's wall time follows its CPU work, GC included.
	runtime.GOMAXPROCS(1)
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "runbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "runbench:", err)
		os.Exit(2)
	}
	res, err := bench(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "runbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, w, *seed, res); err != nil {
		fmt.Fprintln(os.Stderr, "runbench:", err)
		os.Exit(1)
	}
}

// result is the JSON object of the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds figures printed above the JSON line only: counts that
	// can be zero on some workload and so are not bounded metrics.
	info []metricLine
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricLine struct {
	name  string
	value float64
	unit  string
}

// provenance identifies what produced a result.
type provenance struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Workers and Shards are the parallel runtime's geometry; both are 0
	// for the sequential runtime.
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

func newProvenance(w *workload, seed int64) provenance {
	p := provenance{
		Workload: w.name, Seed: seed, Workers: min(w.shards, 1), Shards: w.shards,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", Dirty: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

// report prints the provenance, every metric by name and unit, and the
// result object as the last line.
func report(out io.Writer, w *workload, seed int64, res result) error {
	prov, err := json.Marshal(newProvenance(w, seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# provenance %s\n", prov)
	for _, l := range res.info {
		fmt.Fprintf(out, "# %-32s %-14.6g %s\n", l.name, l.value, l.unit)
	}
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[s.name]; ok {
			fmt.Fprintf(out, "# %-32s %-14.6g %s\n", s.name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
