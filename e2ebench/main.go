// Command e2ebench is the repository's end-to-end benchmark: closed-loop
// clients post NDJSON tick batches over loopback TCP to the real cescd
// handlers running in the same process, and time each request from send
// until the verdict is read back off the wire.
//
// Run it from the checkout root (bash e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload ocp-detect-wait64 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run that fills the per-layer ledger. Either way every session's
// verdicts are checked against a reference engine before the result is
// printed. The last line of standard output is the result as JSON; the
// line before it records the environment the result was measured in.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// commit is the git commit the binary was built from, set by run.sh
// when the checkout is a git clone.
var commit = "unknown"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	flags := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flags.Int64("seed", 1, "seed the workload's traffic is generated from")
	seconds := flags.Float64("seconds", 10, "measured seconds per run")
	traced := flags.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root := "."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run from the root of a repository checkout:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	workDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	o := options{
		root:      root,
		workDir:   workDir,
		seed:      *seed,
		measure:   time.Duration(*seconds * float64(time.Second)),
		warmup:    time.Second,
		windows:   10,
		conns:     min(w.conns, runtime.NumCPU()),
		setupReps: 9,
	}
	rep, err := runWorkload(w, o, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if rep.checkErr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: correctness gate:", rep.checkErr)
	}
	record := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traced,
		"commit":     commit,
		"source":     sourceDigest(root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"conns":      o.conns,
		"samples":    rep.samples,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// sourceDigest identifies the measured code even where the checkout
// carries no git metadata: a digest of the module's Go sources.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel names the processor the result was measured on.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
