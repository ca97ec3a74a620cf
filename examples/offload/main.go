// Offloading demo (paper §4.3.3, Table 2): extract a repository held at
// a busy "midway" site while the RAND policy ships a percentage of
// families to an idle "jetstream" site, over the live execution path.
// Compares completion with and without offloading.
//
//	go run ./examples/offload [-percent 20] [-groups 300]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/journal"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

func run(percent float64, groups int) (time.Duration, int64, int64, int64) {
	repo := store.NewMemFS("midway", nil)
	if _, err := dataset.MaterializeMDF(repo, "/repo", groups, 3); err != nil {
		log.Fatal(err)
	}
	jsStore := store.NewMemFS("jetstream", nil)

	var policy scheduler.Policy = scheduler.LocalPolicy{}
	if percent > 0 {
		policy = &scheduler.RandPolicy{Percent: percent, Rng: rand.New(rand.NewSource(5))}
	}
	clk := clock.NewReal()
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		// Midway is deliberately under-provisioned (2 workers) so that
		// offloading to Jetstream's 4 idle workers pays off.
		{Name: "midway", Store: repo, Workers: 2},
		{Name: "jetstream", Store: jsStore, Workers: 4, SiteSettings: core.SiteSettings{DeleteStaged: true}},
	}, deploy.Options{Settings: core.Settings{Policy: policy}})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	start := time.Now()
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "midway",
		Roots:   []string{"/repo"},
		Grouper: "matio",
	}})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	mw, _ := d.Service.Site("midway")
	js, _ := d.Service.Site("jetstream")
	return elapsed, mw.Compute.TasksExecuted.Load(),
		js.Compute.TasksExecuted.Load(), stats.BytesStaged
}

func main() {
	percent := flag.Float64("percent", 20, "RAND offload percentage")
	groups := flag.Int("groups", 300, "synthetic repository size (groups)")
	flag.Parse()

	fmt.Printf("extracting a %d-group repository held at 'midway' (2 workers), 'jetstream' idle (4 workers)\n\n", *groups)
	for _, pct := range []float64{0, *percent} {
		elapsed, mwTasks, jsTasks, staged := run(pct, *groups)
		fmt.Printf("RAND %4.0f%%: completion %8v  midway tasks %4d  jetstream tasks %4d  staged %6.2f MB\n",
			pct, elapsed.Round(time.Millisecond), mwTasks, jsTasks, float64(staged)/1e6)
	}
	fmt.Println("\noffloading uses the idle site's workers at the cost of staging the files first,")
	fmt.Println("the trade-off Table 2 quantifies at scale (best completion at ~10% offload)")
}
