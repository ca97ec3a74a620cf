package api_test

import (
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/cache"
	"xtract/internal/core"
)

func TestCacheEndpointDisabled(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()

	resp, err := client.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Enabled {
		t.Fatal("cache reported enabled on a cache-less service")
	}
	if resp.Stats != (cache.Stats{}) {
		t.Fatalf("stats = %+v", resp.Stats)
	}
}

func TestCacheEndpointAndNoCacheOverride(t *testing.T) {
	c := cache.New(0)
	client, _, _, done := newTestServerDepsCfg(t, false, nil,
		func(cfg *core.Config) { cfg.Cache = c })
	defer done()

	submitAndWait := func(noCache bool) api.JobStatus {
		t.Helper()
		jobID, err := client.Submit(api.JobRequest{
			Repos: []api.RepoRequest{{
				Site: "local", Roots: []string{"/data"}, Grouper: "single",
			}},
			NoCache: noCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.Err != "" || st.Stats == nil {
			t.Fatalf("job = %+v", st)
		}
		return st
	}

	cold := submitAndWait(false)
	if cold.Stats.CacheMisses == 0 || cold.Stats.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	warm := submitAndWait(false)
	if warm.Stats.CacheHits == 0 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("warm stats = %+v", warm.Stats)
	}

	resp, err := client.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Stats.Hits == 0 || resp.Stats.Entries == 0 {
		t.Fatalf("cache endpoint = %+v", resp)
	}
	// The cold crawl hashed every file; the warm one reused every hash.
	if resp.Stats.FileHashes == 0 || resp.Stats.FileHashHits != resp.Stats.FileHashes {
		t.Fatalf("cache endpoint fingerprint counters = %+v", resp.Stats)
	}

	// The per-job override must bypass the cache entirely.
	before := c.Stats()
	bypass := submitAndWait(true)
	if bypass.Stats.CacheHits != 0 || bypass.Stats.CacheMisses != 0 {
		t.Fatalf("no_cache stats = %+v", bypass.Stats)
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("no_cache job moved cache counters: %+v -> %+v", before, after)
	}
}
