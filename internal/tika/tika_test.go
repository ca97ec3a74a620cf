package tika

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/store"
)

func TestDetect(t *testing.T) {
	pngData := encodeTestPNG(t)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"a.png", pngData, store.MimePNG},
		{"a.jpg", []byte{0xFF, 0xD8, 0xFF, 0xE0}, store.MimeJPEG},
		{"a.zip", []byte("PK\x03\x04junk"), store.MimeZip},
		{"a.h5", []byte("XHD1xxx"), store.MimeHDF},
		{"a.json", []byte(` {"k":1}`), store.MimeJSON},
		{"a.xml", []byte(`<root/>`), store.MimeXML},
		{"a.csv", []byte("plain words here"), store.MimeCSV}, // by extension
		{"a.pdf", []byte("plain"), store.MimePDF},
		{"notes.txt", []byte("a,b\n1,2\n"), store.MimeText}, // the ambiguity
	}
	for _, c := range cases {
		if got := Detect(c.name, c.data); got != c.want {
			t.Errorf("Detect(%s) = %s, want %s", c.name, got, c.want)
		}
	}
}

func encodeTestPNG(t *testing.T) []byte {
	t.Helper()
	img := image.NewRGBA(image.Rect(0, 0, 8, 8))
	for i := 0; i < 8; i++ {
		img.Set(i, i, color.RGBA{R: uint8(i * 30), A: 255})
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseSelectsSingleParser(t *testing.T) {
	s := NewServer(2, 0, clock.NewReal())
	res := s.Parse("/d/data.csv", []byte("x,y\n1,2\n3,4\n"))
	if res.Err != "" || res.Parser != "tabular" {
		t.Fatalf("res = %+v", res)
	}
	if s.Processed.Load() != 1 {
		t.Fatalf("processed = %d", s.Processed.Load())
	}
}

func TestParseTextTableMissesTabular(t *testing.T) {
	// The paper's criticism: a .txt containing a table is text/plain, so
	// Tika applies only the text parser and never discovers the table.
	s := NewServer(1, 0, clock.NewReal())
	res := s.Parse("/d/table.txt", []byte("a,b,c\n1,2,3\n4,5,6\n7,8,9\n"))
	if res.Parser != "keyword" {
		t.Fatalf("parser = %s", res.Parser)
	}
	if _, hasSuggest := res.Metadata[extractors.SuggestKey]; hasSuggest {
		t.Fatal("Tika baseline must not propagate dynamic-plan suggestions")
	}
	if _, hasColumns := res.Metadata["columns"]; hasColumns {
		t.Fatal("Tika baseline should not produce tabular metadata for text/plain")
	}
}

func TestParseImage(t *testing.T) {
	s := NewServer(1, 0, clock.NewReal())
	res := s.Parse("/d/img.png", encodeTestPNG(t))
	if res.Err != "" || res.Parser != "images" {
		t.Fatalf("res = %+v", res)
	}
}

func TestParseFailure(t *testing.T) {
	s := NewServer(1, 0, clock.NewReal())
	res := s.Parse("/d/fake.csv", []byte("no table structure"))
	if res.Err == "" {
		t.Fatalf("res = %+v, want parse error", res)
	}
	if s.Failed.Load() != 1 {
		t.Fatalf("failed = %d", s.Failed.Load())
	}
}

func TestThreadPoolBounds(t *testing.T) {
	s := NewServer(2, 5*time.Millisecond, clock.NewReal())
	var mu sync.Mutex
	cur, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.sem <- struct{}{}
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			<-s.sem
		}(i)
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak concurrency = %d, want <= 2", peak)
	}
}

func TestParseAll(t *testing.T) {
	s := NewServer(4, 0, clock.NewReal())
	files := map[string][]byte{
		"/a.csv":  []byte("x,y\n1,2\n3,4\n"),
		"/b.txt":  []byte("perovskite materials research notes"),
		"/c.json": []byte(`{"k": 1}`),
	}
	var names []string
	for n := range files {
		names = append(names, n)
	}
	names = append(names, "/missing.txt")
	results := s.ParseAll(names, func(n string) ([]byte, error) {
		if data, ok := files[n]; ok {
			return data, nil
		}
		return nil, fmt.Errorf("not found")
	})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	okCount := 0
	for i, r := range results {
		if r.Name != names[i] {
			t.Fatalf("order broken: %s != %s", r.Name, names[i])
		}
		if r.Err == "" {
			okCount++
		}
	}
	if okCount != 3 {
		t.Fatalf("ok = %d", okCount)
	}
}

func TestExtensionsCovered(t *testing.T) {
	covered, total := ExtensionsCovered([]string{"a.csv", "b.txt", "c.pdf", "d.csv"})
	if total != 3 { // csv, txt, pdf
		t.Fatalf("total = %d", total)
	}
	if covered != 2 { // csv and pdf; txt is text/plain
		t.Fatalf("covered = %d", covered)
	}
}

func TestOverheadCharged(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	s := NewServer(1, 2*time.Second, clk)
	done := make(chan Result, 1)
	go func() { done <- s.Parse("/a.txt", []byte("hello world text")) }()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * time.Second)
	res := <-done
	if res.Err != "" {
		t.Fatalf("res = %+v", res)
	}
	if got := clk.Since(time.Unix(0, 0)); got < 2*time.Second {
		t.Fatalf("overhead not charged: %v", got)
	}
}
