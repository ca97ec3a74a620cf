// Google Drive case study (paper §5.8.2, Table 3): extract metadata from
// an uncurated Drive-like repository that has no local compute — every
// file must be staged to the River site before extraction. Runs the live
// execution path over real bytes: text, CSV, PNG images (with embedded
// map-location metadata), an XHD container, and zip archives.
//
//	go run ./examples/gdrive [-files 400]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/journal"
	"xtract/internal/store"
	"xtract/internal/validate"
)

func main() {
	nFiles := flag.Int("files", 400, "approximate corpus size (paper: 4443)")
	flag.Parse()

	// The student's Drive account, with the paper's type mix scaled down.
	clk := clock.NewReal()
	drive := store.NewDriveStore("gdrive", clk, 0, 0)
	counts := dataset.PaperGDriveCounts().Scale(*nFiles)
	written, err := dataset.MaterializeGDrive(drive, counts, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Drive corpus: %d files (%d text, %d tabular, %d images, %d presentations, %d hierarchical, %d compressed, %d unknown)\n",
		written, counts.Text, counts.Tabular, counts.Images,
		counts.Presentations, counts.Hierarchical, counts.Compressed, counts.Unknown)

	// Two sites: the Drive account (storage only) and River (30 pods).
	// River pods mount no shared file system, so each worker downloads
	// its files directly through the Drive API at extraction time — the
	// paper's Table 3 configuration.
	river := store.NewMemFS("river", nil)
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "gdrive", Store: drive, Workers: 0},
		{Name: "river", Store: river, Workers: 30, SiteSettings: core.SiteSettings{DirectFetch: true}},
	}, deploy.Options{Validator: validate.NewMDF("gdrive-case-study")})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	start := time.Now()
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "gdrive",
		Roots:   []string{"/"},
		Grouper: "single",
	}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nextraction complete in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("families: %d done, %d failed; extractor invocations: %d (files can draw several extractors)\n",
		stats.FamiliesDone, stats.FamiliesFailed, stats.StepsProcessed)
	fmt.Printf("bytes staged gdrive → river: %.1f MB\n", float64(stats.BytesStaged)/1e6)

	fmt.Println("\nper-extractor mean execution time (live measurements):")
	durations := d.Obs.Reg().HistogramVec("xtract_step_duration_seconds", "", nil, "extractor")
	for _, name := range extractors.DefaultLibrary().Names() {
		if h := durations.With(name); h.Count() > 0 {
			fmt.Printf("  %-14s %6d invocations  %8.2f ms avg\n",
				name, h.Count(), h.Sum()/float64(h.Count())*1000)
		}
	}
	fmt.Printf("\nvalidated MDF documents: %d\n", d.Validation.Validated.Load())
}
