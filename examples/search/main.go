// Search: the downstream half of the FAIR story — run bulk extraction on
// a synthetic repository, ingest the validated metadata into the search
// index, answer queries, report duplicate files, and rank records by
// metadata utility (the paper's future-work directions, implemented).
//
//	go run ./examples/search [-groups 80] [-query "perovskite"]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/dedup"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/fastjson"
	"xtract/internal/index"
	"xtract/internal/quality"
	"xtract/internal/store"
	"xtract/internal/validate"
)

func main() {
	groups := flag.Int("groups", 80, "synthetic repository size (groups)")
	query := flag.String("query", "structure energy", "search query")
	flag.Parse()

	// 1. Repository + one duplicated README (for the dedup report).
	repo := store.NewMemFS("mdf-mini", nil)
	if _, err := dataset.MaterializeMDF(repo, "/mdf", *groups, 11); err != nil {
		log.Fatal(err)
	}
	readme := []byte("materials data facility subset: perovskite and silicon samples")
	_ = repo.Write("/mdf/README.txt", readme)
	_ = repo.Write("/mdf/dataset_001/README.txt", readme) // exact duplicate

	// 2. Extract.
	clk := clock.NewReal()
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "mdf-mini", Store: repo, Workers: 4},
	}, deploy.Options{Validator: validate.NewMDF("search-example")})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	stats, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "mdf-mini",
		Roots:    []string{"/mdf"},
		Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		log.Fatal(err)
	}
	d.DrainValidation()
	fmt.Printf("extracted %d families (%d invocations)\n", stats.FamiliesDone, stats.StepsProcessed)

	// 3. Ingest validated metadata into the search index.
	ix := index.New()
	n, err := ix.IngestStore(d.Dest, "/metadata")
	if err != nil {
		log.Fatal(err)
	}
	docs, terms := ix.Stats()
	fmt.Printf("indexed %d documents (%d docs, %d distinct terms)\n", n, docs, terms)

	fmt.Printf("\nquery %q:\n", *query)
	hits := ix.Search(*query)
	for i, h := range hits {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(hits)-5)
			break
		}
		fmt.Printf("  %5.3f  %s\n", h.Score, h.DocID)
	}
	if len(hits) == 0 {
		fmt.Println("  (no hits)")
	}

	// 4. Duplicate detection over the repository (future work §7).
	det := dedup.NewDetector()
	walkFiles(repo, "/mdf", func(p string, data []byte) { det.Add(p, data) })
	rep := det.Report()
	fmt.Printf("\ndedup: %d files scanned, %d exact-duplicate groups, %d near pairs, %d redundant bytes\n",
		rep.Files, len(rep.ExactGroups), len(rep.NearPairs), rep.RedundantBytes)
	for _, g := range rep.ExactGroups {
		fmt.Printf("  duplicates: %v\n", g)
	}

	// 5. Utility ranking of validated records (future work §7).
	recs := loadRecords(d)
	order := quality.Rank(recs, quality.DefaultWeights())
	fmt.Println("\ntop records by metadata utility:")
	for i := 0; i < 3 && i < len(order); i++ {
		rec := recs[order[i]]
		s := quality.Evaluate(rec, quality.DefaultWeights())
		fmt.Printf("  %.3f  %-40s (%d fields)\n", s.Overall, rec.FamilyID, s.Fields)
	}
}

// walkFiles visits every file under dir.
func walkFiles(s store.Store, dir string, fn func(path string, data []byte)) {
	infos, err := s.List(dir)
	if err != nil {
		return
	}
	for _, fi := range infos {
		if fi.IsDir {
			walkFiles(s, fi.Path, fn)
			continue
		}
		if data, err := s.Read(fi.Path); err == nil {
			fn(fi.Path, data)
		}
	}
}

// loadRecords reconstructs validate.Records from the passthrough-style
// documents for utility scoring (the MDF docs embed the same blocks).
func loadRecords(d *deploy.Deployment) []validate.Record {
	var out []validate.Record
	walkFiles(d.Dest, "/metadata", func(p string, data []byte) {
		var doc struct {
			MDF      map[string]interface{}  `json:"mdf"`
			Files    []string                `json:"files"`
			Metadata map[string]fastjson.Raw `json:"metadata"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return
		}
		id := p
		if doc.MDF != nil {
			if s, ok := doc.MDF["scroll_id"].(string); ok {
				id = s
			}
		}
		out = append(out, validate.Record{
			FamilyID: id,
			Files:    doc.Files,
			Metadata: doc.Metadata,
		})
	})
	return out
}
