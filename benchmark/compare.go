package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare.go is -compare: the tool a later change uses to show what it moved
// and what it left alone. Each side is a record file (one record, or the
// run.json array a run of several workloads writes) or a directory of them.

// loadRecords reads the records at path, keyed by workload.
func loadRecords(path string) (map[string]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := map[string]*record{}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") || strings.HasSuffix(f, ".layers.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []*record
		if err := json.Unmarshal(b, &many); err != nil {
			var one record
			if err := json.Unmarshal(b, &one); err != nil {
				return nil, fmt.Errorf("%s: not a benchmark record: %w", f, err)
			}
			many = []*record{&one}
		}
		for _, r := range many {
			if r.Workload != "" && r.Metrics != nil {
				out[r.Workload] = r
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return out, nil
}

// verdict judges b against a on one metric. worsening is the share of a's
// median by which b's median moved in the bad direction. In order: identical
// repetitions are the same; if every repetition of b beats every repetition
// of a, b is better; a worsening beyond the bound is worse; otherwise, when
// either side's own min–max spread is wider than the bound the two cannot be
// told apart at this bound and the pair is unresolved; an improvement beyond
// the bound is better; anything else is the same.
func verdict(m e2eMetric, a, b stat) (worsening float64, v string) {
	if fmt.Sprint(a.Values) == fmt.Sprint(b.Values) {
		return 0, "same"
	}
	sign := 1.0 // a rise is bad
	if m.better == "higher" {
		sign = -1
	}
	worsening = sign * (b.Median - a.Median) / a.Median
	worstB, bestA := b.Max, a.Min
	if m.better == "higher" {
		worstB, bestA = b.Min, a.Max
	}
	spread := func(s stat) float64 { return (s.Max - s.Min) / s.Median }
	switch {
	case sign*(worstB-bestA) < 0:
		return worsening, "better"
	case worsening > m.bound:
		return worsening, "worse"
	case spread(a) > m.bound || spread(b) > m.bound:
		return worsening, "unresolved"
	case worsening < -m.bound:
		return worsening, "better"
	}
	return worsening, "same"
}

// compareRecords prints one row per (end-to-end metric, workload) and says
// whether the virtual-time metrics are bit-identical. It fails when any pair
// is worse.
func compareRecords(pathA, pathB string) error {
	as, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	bs, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range as {
		if bs[name] != nil {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the two sides share no workload")
	}
	sort.Slice(names, func(i, j int) bool { return workloadIndex(names[i]) < workloadIndex(names[j]) })

	fmt.Printf("%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worsened", "bound", "verdict")
	tally := map[string]int{}
	for _, name := range names {
		a, b := as[name], bs[name]
		if a.Seed != b.Seed || a.OpsPerRep != b.OpsPerRep {
			fmt.Printf("%-15s NOTE: seeds or sizes differ (a: seed %d, %d ops; b: seed %d, %d ops)\n",
				name, a.Seed, a.OpsPerRep, b.Seed, b.OpsPerRep)
		}
		virtualSame := true
		for _, m := range e2eMetrics {
			sa, sb := a.Metrics[m.name], b.Metrics[m.name]
			w, v := verdict(m, sa, sb)
			tally[v]++
			fmt.Printf("%-15s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", name, m.name, sa.Median, sb.Median, 100*w, 100*m.bound, v)
			if m.virtual && fmt.Sprint(sa.Values) != fmt.Sprint(sb.Values) {
				virtualSame = false
			}
		}
		sameDigests := fmt.Sprint(a.Digests) == fmt.Sprint(b.Digests)
		switch {
		case virtualSame && sameDigests:
			fmt.Printf("%-15s virtual-time metrics and digests are bit-identical\n", name)
		case virtualSame:
			fmt.Printf("%-15s virtual-time metrics are bit-identical; the digests (every latency sample and the registry) differ\n", name)
		default:
			fmt.Printf("%-15s virtual-time metrics DIFFER: the modelled system changed, not only the simulator\n", name)
		}
	}
	fmt.Printf("%d same, %d better, %d worse, %d unresolved\n", tally["same"], tally["better"], tally["worse"], tally["unresolved"])
	if tally["worse"] > 0 {
		return fmt.Errorf("%d metric/workload pairs are worse", tally["worse"])
	}
	return nil
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return len(workloads)
}
