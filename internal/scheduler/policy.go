package scheduler

import (
	"math/rand"

	"xtract/internal/family"
)

// SiteState is a placement-time snapshot of one compute site.
type SiteState struct {
	// Name is the site (endpoint) identifier.
	Name string
	// HasCompute reports whether a compute layer exists at the site; a
	// storage-only site (e.g., Petrel, Google Drive) always offloads.
	HasCompute bool
	// Workers is the size of the site's worker pool.
	Workers int
	// QueueDepth is the number of tasks waiting at the site.
	QueueDepth int
}

// Busy reports whether the site is fully occupied with queued work (each
// worker already has more than one task waiting).
func (s SiteState) Busy() bool {
	return s.Workers > 0 && s.QueueDepth > s.Workers
}

// Policy decides which site a family's extraction should run on.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Place returns the chosen site name. home is the site where the
	// family's files reside; alternates are the other sites, valid during
	// the call.
	Place(fam *family.Family, home SiteState, alternates []SiteState) string
}

// leastLoaded picks the alternate with the smallest queue-per-worker
// ratio, falling back to the first with compute.
func leastLoaded(alternates []SiteState) (SiteState, bool) {
	best := -1
	bestLoad := 0.0
	for i, a := range alternates {
		if !a.HasCompute || a.Workers == 0 {
			continue
		}
		load := float64(a.QueueDepth) / float64(a.Workers)
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best == -1 {
		return SiteState{}, false
	}
	return alternates[best], true
}

// LocalPolicy never offloads: extraction runs where the data are, unless
// the home site has no compute layer, in which case the least-loaded
// alternate is used (data must move — the Figure 6 scenario).
type LocalPolicy struct{}

// Name implements Policy.
func (LocalPolicy) Name() string { return "local" }

// Place implements Policy.
func (LocalPolicy) Place(_ *family.Family, home SiteState, alternates []SiteState) string {
	if home.HasCompute {
		return home.Name
	}
	if alt, ok := leastLoaded(alternates); ok {
		return alt.Name
	}
	return home.Name
}

// RandPolicy offloads a fixed percentage of families, selected uniformly
// at random, to alternate sites (the RAND mode of §4.3.3, evaluated in
// Table 2).
type RandPolicy struct {
	// Percent of families to offload, in [0,100].
	Percent float64
	// Rng drives selection; seed it for reproducibility.
	Rng *rand.Rand
}

// Name implements Policy.
func (p *RandPolicy) Name() string { return "rand" }

// Place implements Policy.
func (p *RandPolicy) Place(fam *family.Family, home SiteState, alternates []SiteState) string {
	if !home.HasCompute {
		return LocalPolicy{}.Place(fam, home, alternates)
	}
	if len(alternates) > 0 && p.Rng.Float64()*100 < p.Percent {
		// Uniform choice among compute-capable alternates.
		var capable []SiteState
		for _, a := range alternates {
			if a.HasCompute {
				capable = append(capable, a)
			}
		}
		if len(capable) > 0 {
			return capable[p.Rng.Intn(len(capable))].Name
		}
	}
	return home.Name
}

// ONBMode selects which side of the size limit offloads.
type ONBMode int

// ONB modes.
const (
	// ONBMax offloads families larger than the limit.
	ONBMax ONBMode = iota
	// ONBMin offloads families smaller than the limit.
	ONBMin
)

// ONBPolicy is offload-n-bytes: when the home site is fully occupied,
// families beyond a byte threshold (above for max, below for min) move to
// idle alternates (§4.3.3).
type ONBPolicy struct {
	// LimitBytes is the size threshold.
	LimitBytes int64
	// Mode selects max (offload big) or min (offload small).
	Mode ONBMode
}

// Name implements Policy.
func (p *ONBPolicy) Name() string {
	if p.Mode == ONBMax {
		return "onb-max"
	}
	return "onb-min"
}

// Place implements Policy.
func (p *ONBPolicy) Place(fam *family.Family, home SiteState, alternates []SiteState) string {
	if !home.HasCompute {
		return LocalPolicy{}.Place(fam, home, alternates)
	}
	if !home.Busy() {
		return home.Name
	}
	size := fam.TotalBytes()
	offload := (p.Mode == ONBMax && size > p.LimitBytes) ||
		(p.Mode == ONBMin && size < p.LimitBytes)
	if !offload {
		return home.Name
	}
	if alt, ok := leastLoaded(alternates); ok {
		return alt.Name
	}
	return home.Name
}
