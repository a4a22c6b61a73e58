// Command relbench is the repository benchmark. It runs one of three
// reliable-device workloads (tcp-mixed, sim-cpu, ac-failover; see
// README.md) through the program's public constructors with closed-loop
// clients, checks every read, and prints its metrics. With --trace 1 it
// instead rebuilds the same site stack with timing decorators at each
// layer boundary and prints the per-layer breakdown.
//
//	relbench --workload tcp-mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any check failed or the run could not
// complete.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("relbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: tcp-mixed, sim-cpu or ac-failover")
	seed := fl.Int64("seed", 1, "seed the workload's operations are generated from")
	seconds := fl.Int("seconds", 10, "length of the measured window")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "relbench: need --workload tcp-mixed|sim-cpu|ac-failover, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	tmp, err := os.MkdirTemp(tmpRoot(), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "relbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	env := environment(w, *seed, *seconds, *trace)
	line, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", line)

	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 0 {
		res, err = endToEnd(context.Background(), w, *seed, d, tmp)
	} else {
		res, err = perLayer(context.Background(), w, *seed, d, tmp)
	}
	if err != nil {
		fmt.Fprintf(stderr, "relbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		fmt.Fprintf(stderr, "relbench: %s: correctness check failed: %s\n", w.name, res.firstBad)
		return 1
	}
	return 0
}

// tmpRoot is where runs keep their segment stores: RELBENCH_TMP, which
// run.sh points inside the build directory, else the system default.
func tmpRoot() string {
	if d := os.Getenv("RELBENCH_TMP"); d != "" {
		if err := os.MkdirAll(d, 0o755); err == nil {
			return d
		}
	}
	return os.TempDir()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when not a sample statistic
}

// result is a run's outcome, printed as report lines then the JSON
// object on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds metrics that are printed but left out of the JSON line,
	// so no gate reads them.
	info     map[string]metric
	notes    []string
	firstBad string
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) inform(name string, v float64, unit string, n int) {
	r.info[name] = metric{Value: v, Unit: unit, n: n}
}

func (r *result) print(out io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for _, set := range []struct {
		label   string
		metrics map[string]metric
	}{{"metric", r.Metrics}, {"info", r.info}} {
		names := make([]string, 0, len(set.metrics))
		for k := range set.metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := set.metrics[k]
			if m.n > 0 {
				fmt.Fprintf(out, "%-6s %-28s %14.4f %-6s (n=%d)\n", set.label, k, m.Value, m.Unit, m.n)
			} else {
				fmt.Fprintf(out, "%-6s %-28s %14.4f %s\n", set.label, k, m.Value, m.Unit)
			}
		}
	}
	line, _ := json.Marshal(r)
	fmt.Fprintf(out, "%s\n", line)
}

// env records where and on what a result was measured.
type env struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Params     map[string]any `json:"params"`
}

func environment(w benchWorkload, seed int64, seconds, trace int) env {
	return env{
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		SourceHash: sourceHash(),
		Params:     w.params(),
	}
}

// commit reads the checked-out commit from .git in the working
// directory, without searching parents; a checkout that is not a git
// repository records "none" and relies on source_sha256.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceHash digests every Go source and go.mod of the program under
// test (the working directory's tree, build output excluded), naming
// the code a result measured even where no commit is recorded.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

var errNotEnoughSamples = errors.New("not enough samples for a required percentile")
