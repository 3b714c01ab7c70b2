package main

// noise.go is the benchmark's own noise check (-noise N): every workload runs
// N times in each of two interleaved sets, both over the same N seeds, each
// run a fresh process as the driver would start it. For every end-to-end
// metric it prints the spread across a set (seed to seed and run to run) and
// the shift between the two sets' medians, against the bound BENCHMARK.json
// gives the metric.

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

// benchSpec is the part of BENCHMARK.json the noise check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// quartiles returns what Python's statistics.quantiles(values, n=4) returns
// (the exclusive method), which is what the driver computes spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if len(data) < 2 {
		return data[0], data[0], data[0]
	}
	at := func(i int) float64 {
		m := len(data) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(data)-1 {
			j = len(data) - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// runNoise returns the process's exit code.
func runNoise(n int, specPath string, opt options) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("noise check: %d runs per set, two interleaved sets, seeds %d..%d, %g s timed per run\n",
		n, opt.seed, opt.seed+int64(n)-1, opt.seconds)
	printHost()
	exit := 0
	for _, wl := range workloads {
		if opt.workload != "all" && opt.workload != wl.name {
			continue
		}
		// sets[set][metric] = one value per run
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				rep, err := runChild(self, wl.name, opt.seed+int64(i), opt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", wl.name, opt.seed+int64(i), err)
					return 2
				}
				if !rep.Correct {
					fmt.Printf("%s seed %d: %d of %d ops failed\n", wl.name, opt.seed+int64(i), rep.Failed, rep.Attempted)
					exit = 1
				}
				for name, v := range rep.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("\n### %s\n\n", wl.name)
		fmt.Println("| metric | unit | median A | Q1 A | Q3 A | spread A | median B | spread B | B worse than A by | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
		for _, m := range spec.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "SHIFT"
				exit = 1
			case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
				verdict = "SPREAD"
				exit = 1
			}
			fmt.Printf("| `%s` | %s | %s | %s | %s | %.1f%% | %s | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				m.Name, m.Unit, sig(a2), sig(a1), sig(a3), 100*spreadA, sig(b2), 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	return exit
}

func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runChild runs one workload once in a fresh process and parses its report.
func runChild(self, workload string, seed int64, opt options) (*report, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", "0", "-dir", opt.dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "FAILED:") {
			fmt.Printf("%s seed %d: %s\n", workload, seed, line)
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last output line is not a report: %w", err)
	}
	return &rep, nil
}
