// Quickstart: generate a small synthetic materials repository in memory,
// stand up a single-site Xtract deployment, run a bulk extraction job,
// and print one of the validated metadata documents.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"xtract/internal/clock"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/journal"
	"xtract/internal/store"
)

func main() {
	// 1. A repository: 40 synthetic materials-science groups (VASP runs,
	//    CIF structures, CSV results, notes, images) with real bytes.
	repo := store.NewMemFS("mdf-mini", nil)
	files, err := dataset.MaterializeMDF(repo, "/mdf", 40, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repository: %d files\n", files)

	// 2. A deployment: one site holding the data with 4 workers.
	clk := clock.NewReal()
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "mdf-mini", Store: repo, Workers: 4},
	}, deploy.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	// 3. Run the extraction job with the MaterialsIO grouping function,
	//    which bundles VASP artifacts into per-calculation groups.
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "mdf-mini",
		Roots:   []string{"/mdf"},
		Grouper: "matio",
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawled %d files → %d groups → %d families\n",
		stats.Crawl.FilesSeen, stats.Crawl.GroupsFormed, stats.FamiliesDone)
	fmt.Printf("extractor invocations: %d (%d failed)\n",
		stats.StepsProcessed, stats.StepsFailed)

	// 4. Inspect a validated metadata document.
	infos, err := d.Dest.List("/metadata")
	if err != nil || len(infos) == 0 {
		log.Fatalf("no metadata documents: %v", err)
	}
	fmt.Printf("metadata documents: %d; first: %s\n", len(infos), infos[0].Name)
	data, _ := d.Dest.Read(infos[0].Path)
	var doc map[string]interface{}
	_ = json.Unmarshal(data, &doc)
	pretty, _ := json.MarshalIndent(doc, "", "  ")
	if len(pretty) > 800 {
		pretty = append(pretty[:800], []byte("\n  ...")...)
	}
	fmt.Println(string(pretty))
}
