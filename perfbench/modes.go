package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload in its own process (this binary, re-executed)
// and returns its parsed result. stdout is the child's standard output.
func runChild(name string, seed uint64, seconds float64, trace bool) (result, []byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	args := []string{"--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, stdout, fmt.Errorf("%s seed %d: no result (%v, exit: %v)", name, seed, err, runErr)
	}
	return res, stdout, runErr
}

// allMode runs every workload once, each in its own process, and echoes
// their output; it fails if any workload fails.
func allMode(seed uint64, seconds float64, trace bool) int {
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		_, stdout, err := runChild(w.name, seed, seconds, trace)
		os.Stdout.Write(stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// steadySets is the number of sets steadiness mode runs: the second
// set's medians against the first's show how far identical code moves.
const steadySets = 2

// steadinessMode runs every workload runs times in each of steadySets
// sets, each run in its own process with its own seed, and prints per
// metric the median and quartiles over all runs, their spread (IQR /
// median), and each set's median with the shift of the last set from
// the first.
func steadinessMode(runs int, seed uint64, seconds float64) int {
	const sets = steadySets
	code := 0
	fmt.Printf("host %s\n", mustJSON(hostStamp(seed, "steadiness")))
	fmt.Printf("runs per set %d, sets %d, seconds %g, seeds %d..%d\n", runs, sets, seconds, seed, seed+uint64(runs*sets)-1)
	for _, w := range workloads {
		values := map[string][][]float64{} // metric -> set -> values
		units := map[string]string{}
		var failed, attempted []int64
		for s := 0; s < sets; s++ {
			for i := 0; i < runs; i++ {
				res, _, err := runChild(w.name, seed+uint64(s*runs+i), seconds, false)
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "perfbench: %s: run failed: %v\n", w.name, err)
					code = 1
					continue
				}
				fmt.Printf("run %s seed %d %s\n", w.name, seed+uint64(s*runs+i), mustJSON(res))
				failed, attempted = append(failed, res.Failed), append(attempted, res.Attempted)
				for n, m := range res.Metrics {
					if values[n] == nil {
						values[n] = make([][]float64, sets)
					}
					values[n][s] = append(values[n][s], m.Value)
					units[n] = m.Unit
				}
			}
		}
		fmt.Printf("\n%s  (failed/attempted per run: %v / %v)\n", w.name, failed, attempted)
		fmt.Printf("%-22s %-6s %14s %14s %14s %8s", "metric", "unit", "median", "q1", "q3", "spread")
		for s := 0; s < sets; s++ {
			fmt.Printf(" %14s", fmt.Sprintf("set%d median", s+1))
		}
		fmt.Printf(" %8s\n", "shift")
		names := make([]string, 0, len(units))
		for n := range units {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var all []float64
			for _, v := range values[n] {
				all = append(all, v...)
			}
			med := median(all)
			q1, q3 := quantile(all, 0.25), quantile(all, 0.75)
			fmt.Printf("%-22s %-6s %14.6g %14.6g %14.6g %7.2f%%", n, units[n], med, q1, q3, 100*(q3-q1)/med)
			first, last := median(values[n][0]), median(values[n][sets-1])
			for s := 0; s < sets; s++ {
				fmt.Printf(" %14.6g", median(values[n][s]))
			}
			fmt.Printf(" %+7.2f%%\n", 100*(last-first)/first)
		}
	}
	return code
}

func mustJSON(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v) // plain structs of strings and numbers
	return bytes.TrimSpace(b.Bytes())
}
