package main

import (
	"fmt"
	"io"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spread is the distance between the first and third quartile of v as a
// share of its median, the quartiles as Python's
// statistics.quantiles(v, n=4) gives them (its default, exclusive
// method); 0 for fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	at := func(q float64) float64 {
		pos := q * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(at(0.75)-at(0.25), median(s))
}

// verdict judges b against a for one end-to-end metric: REGRESSED when
// b's median is worse than a's by more than the bound, UNRESOLVED when
// the runs of either side scatter more than the bound (unless every run
// of b is better than every run of a), PASS otherwise.
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	worse := ratio(mb-ma, ma)
	if better == "higher" {
		worse = ratio(ma-mb, ma)
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if better == "higher" {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "UNRESOLVED"
		}
	}
	if worse > bound {
		return "REGRESSED"
	}
	return "PASS"
}

// compareSets prints, per metric and workload, both sets' medians, the
// ratio of the second to the first, and for end-to-end metrics the
// verdict against the bound in BENCHMARK.json. It reports whether any
// metric regressed.
func compareSets(out io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b resultSet
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a = %s (seed %d, %d runs)\nb = %s (seed %d, %d runs)\n", aPath, a.Seed, a.Runs, bPath, b.Seed, b.Runs)
	fmt.Fprintf(out, "%-14s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	regressed := false
	names := make([]string, 0, len(spec.Workloads))
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	for _, w := range names {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-14s missing from one set\n", w)
			continue
		}
		if a.Seed == b.Seed && wa.Digest != wb.Digest {
			fmt.Fprintf(out, "%-14s documents differ for the same seed: %s vs %s\n", w, wa.Digest, wb.Digest)
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-14s %-34s missing from one set\n", w, m.Name)
				continue
			}
			v := verdict(va, vb, m.Better, m.Bound)
			if v == "REGRESSED" {
				regressed = true
			}
			fmt.Fprintf(out, "%-14s %-34s %14.4f %14.4f %9.4f %6.0f%%  %s\n", w, m.Name,
				median(va), median(vb), ratio(median(vb), median(va)), 100*m.Bound, v)
		}
		for _, m := range spec.PerLayer {
			va, vb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(out, "%-14s %-34s %14.4f %14.4f %9.4f\n", w, m.Name,
				median(va), median(vb), ratio(median(vb), median(va)))
		}
	}
	return regressed, nil
}
