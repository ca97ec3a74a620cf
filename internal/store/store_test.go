package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"xtract/internal/clock"
)

func TestClean(t *testing.T) {
	cases := map[string]string{
		"":        "/",
		"/":       "/",
		"a/b":     "/a/b",
		"/a/b/":   "/a/b",
		"/a/../b": "/b",
		"//a//b":  "/a/b",
		"/a/./b":  "/a/b",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExtensionOf(t *testing.T) {
	cases := map[string]string{
		"a.TXT":     "txt",
		"a.tar.gz":  "gz",
		"noext":     "",
		"dir/f.CSV": "csv",
		".hidden":   "hidden",
	}
	for in, want := range cases {
		if got := ExtensionOf(in); got != want {
			t.Errorf("ExtensionOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMemFSWriteReadStat(t *testing.T) {
	fs := NewMemFS("test", nil)
	if err := fs.Write("/data/exp1/file.csv", []byte("a,b\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/data/exp1/file.csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n1,2\n" {
		t.Fatalf("Read = %q", got)
	}
	info, err := fs.Stat("/data/exp1/file.csv")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 8 || info.Extension != "csv" || info.IsDir {
		t.Fatalf("Stat = %+v", info)
	}
	dinfo, err := fs.Stat("/data/exp1")
	if err != nil || !dinfo.IsDir {
		t.Fatalf("dir stat = %+v, %v", dinfo, err)
	}
}

func TestMemFSList(t *testing.T) {
	fs := NewMemFS("test", nil)
	for _, p := range []string{"/d/b.txt", "/d/a.txt", "/d/sub/c.txt"} {
		if err := fs.Write(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := fs.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("len = %d, want 3", len(infos))
	}
	// Sorted by name: a.txt, b.txt, sub
	if infos[0].Name != "a.txt" || infos[2].Name != "sub" || !infos[2].IsDir {
		t.Fatalf("infos = %+v", infos)
	}
}

// TestHideLeavesPathsOutOfListings: hidden directories are missing from
// every listing, at any depth and however they were spelled, stay readable
// by path, and the wrapped store's own listing is not written to.
func TestHideLeavesPathsOutOfListings(t *testing.T) {
	fs := NewMemFS("test", nil)
	for _, p := range []string{"/a.txt", "/stage/x.txt", "/cp/y.json", "/d/out/z.json", "/d/in.txt"} {
		if err := fs.Write(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names := func(s Store, dir string) string {
		t.Helper()
		infos, err := s.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, fi := range infos {
			out = append(out, fi.Name)
		}
		return strings.Join(out, " ")
	}
	h := Hide(fs, "/stage", "cp/", "/d/out", "")
	if got := names(h, "/"); got != "a.txt d" {
		t.Errorf("hidden root lists %q, want a.txt d", got)
	}
	if got := names(h, "/d"); got != "in.txt" {
		t.Errorf("hidden /d lists %q, want in.txt", got)
	}
	if got := names(h, "/stage"); got != "x.txt" {
		t.Errorf("a hidden directory lists %q itself, want x.txt", got)
	}
	if _, err := h.Read("/cp/y.json"); err != nil {
		t.Errorf("a hidden file is not readable by path: %v", err)
	}
	if got := names(fs, "/"); got != "a.txt cp d stage" {
		t.Errorf("the wrapped store lists %q afterwards", got)
	}
}

func TestMemFSErrors(t *testing.T) {
	fs := NewMemFS("test", nil)
	if _, err := fs.Read("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.List("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := fs.Write("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List("/f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("list file err = %v", err)
	}
	if _, err := fs.Read("/"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read dir err = %v", err)
	}
	if err := fs.Delete("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete err = %v", err)
	}
}

func TestMemFSDelete(t *testing.T) {
	fs := NewMemFS("test", nil)
	if err := fs.Write("/a/f.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/a"); err == nil {
		t.Fatal("deleting non-empty dir should fail")
	}
	if err := fs.Delete("/a/f.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("/a/f.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemFSIsolation(t *testing.T) {
	fs := NewMemFS("test", nil)
	data := []byte("abc")
	if err := fs.Write("/f", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := fs.Read("/f")
	if string(got) != "abc" {
		t.Fatal("write aliased caller buffer")
	}
	got[0] = 'Y'
	got2, _ := fs.Read("/f")
	if string(got2) != "abc" {
		t.Fatal("read aliased internal buffer")
	}
}

func TestMemFSTraffic(t *testing.T) {
	fs := NewMemFS("test", nil)
	_ = fs.Write("/f", make([]byte, 100))
	_, _ = fs.Read("/f")
	_, _ = fs.Read("/f")
	r, w := fs.Traffic()
	if r != 200 || w != 100 {
		t.Fatalf("Traffic = %d,%d want 200,100", r, w)
	}
	total, files := fs.TotalBytes()
	if total != 100 || files != 1 {
		t.Fatalf("TotalBytes = %d,%d", total, files)
	}
}

func TestMemFSConcurrent(t *testing.T) {
	fs := NewMemFS("test", nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p := fmt.Sprintf("/w%d/f%d.txt", i, j)
				if err := fs.Write(p, []byte("x")); err != nil {
					t.Error(err)
				}
				if _, err := fs.Read(p); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	_, files := fs.TotalBytes()
	if files != 800 {
		t.Fatalf("files = %d, want 800", files)
	}
}

// Readers hold only the read lock, so the read counter must stay exact
// on its own while a writer keeps changing the file's size under them.
func TestMemFSTrafficExactUnderConcurrentReads(t *testing.T) {
	fs := NewMemFS("test", nil)
	_ = fs.Write("/shared", []byte("a"))
	var readers sync.WaitGroup
	var got atomic.Int64
	for i := 0; i < 8; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 500; j++ {
				data, err := fs.Read("/shared")
				if err != nil || strings.Trim(string(data), "a") != "" {
					t.Errorf("Read = %q, %v", data, err)
				}
				got.Add(int64(len(data)))
			}
		}()
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for n := 1; ; n = n%7 + 1 {
			select {
			case <-stop:
				return
			default:
				_ = fs.Write("/shared", []byte(strings.Repeat("a", n)))
			}
		}
	}()
	readers.Wait()
	close(stop)
	<-writerDone
	if r, _ := fs.Traffic(); r != got.Load() {
		t.Fatalf("Traffic read = %d, readers saw %d bytes", r, got.Load())
	}
}

func TestMemFSRoundTripProperty(t *testing.T) {
	fs := NewMemFS("prop", nil)
	i := 0
	f := func(data []byte) bool {
		i++
		p := fmt.Sprintf("/p/f%d", i)
		if err := fs.Write(p, data); err != nil {
			return false
		}
		got, err := fs.Read(p)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObjectStoreBasics(t *testing.T) {
	o := NewObjectStore("s3", nil)
	if err := o.Write("/bucket/dir/key.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read("/bucket/dir/key.json")
	if err != nil || string(got) != "{}" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if o.KeyCount() != 1 {
		t.Fatalf("KeyCount = %d", o.KeyCount())
	}
	info, err := o.Stat("/bucket/dir/key.json")
	if err != nil || info.Extension != "json" {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	// Prefix stat acts as a directory.
	dinfo, err := o.Stat("/bucket/dir")
	if err != nil || !dinfo.IsDir {
		t.Fatalf("prefix Stat = %+v, %v", dinfo, err)
	}
}

func TestObjectStoreList(t *testing.T) {
	o := NewObjectStore("s3", nil)
	_ = o.Write("/b/x.txt", []byte("1"))
	_ = o.Write("/b/sub/y.txt", []byte("2"))
	_ = o.Write("/b/sub/deep/z.txt", []byte("3"))
	infos, err := o.List("/b")
	if err != nil {
		t.Fatal(err)
	}
	// Expect sub (dir) and x.txt
	if len(infos) != 2 {
		t.Fatalf("infos = %+v", infos)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name)
	}
	if names[0] != "sub" || names[1] != "x.txt" {
		t.Fatalf("names = %v", names)
	}
	if _, err := o.List("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectStoreDelete(t *testing.T) {
	o := NewObjectStore("s3", nil)
	_ = o.Write("/k", []byte("v"))
	if err := o.Delete("/k"); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete("/k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDriveStoreMimeAndID(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	d := NewDriveStore("gdrive", clk, 0, 0)
	id, err := d.WriteWithMime("/docs/paper.pdf", []byte("%PDF"), MimePDF)
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty id")
	}
	got, err := d.ReadByID(id)
	if err != nil || string(got) != "%PDF" {
		t.Fatalf("ReadByID = %q, %v", got, err)
	}
	info, err := d.Stat("/docs/paper.pdf")
	if err != nil || info.MimeType != MimePDF {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	if got, ok := d.IDOf("/docs/paper.pdf"); !ok || got != id {
		t.Fatalf("IDOf = %q, %v", got, ok)
	}
	infos, err := d.List("/docs")
	if err != nil || len(infos) != 1 || infos[0].MimeType != MimePDF {
		t.Fatalf("List = %+v, %v", infos, err)
	}
}

func TestDriveStoreRateLimit(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	d := NewDriveStore("gdrive", clk, 1, 2) // 1 req/s, burst 2
	_ = d.Write("/f.txt", []byte("x"))
	if _, err := d.Read("/f.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("/f.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read("/f.txt"); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("err = %v, want rate limit", err)
	}
	clk.Advance(time.Second)
	if _, err := d.Read("/f.txt"); err != nil {
		t.Fatalf("after refill err = %v", err)
	}
	calls, throttled := d.APIStats()
	if calls != 4 || throttled != 1 {
		t.Fatalf("APIStats = %d,%d", calls, throttled)
	}
}

func TestDriveStoreWriteInfersMime(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	d := NewDriveStore("gdrive", clk, 0, 0)
	_ = d.Write("/a.csv", []byte("x,y"))
	info, _ := d.Stat("/a.csv")
	if info.MimeType != MimeCSV {
		t.Fatalf("MimeType = %q", info.MimeType)
	}
}

func TestDriveStoreDeleteRemovesID(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	d := NewDriveStore("gdrive", clk, 0, 0)
	id, _ := d.WriteWithMime("/f.txt", []byte("x"), MimeText)
	if err := d.Delete("/f.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadByID(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestMimeFromExtension(t *testing.T) {
	cases := map[string]string{
		"txt": MimeText, "pdf": MimePDF, "csv": MimeCSV, "png": MimePNG,
		"jpg": MimeJPEG, "json": MimeJSON, "h5": MimeHDF, "weird": MimeUnknown,
	}
	for ext, want := range cases {
		if got := MimeFromExtension(ext); got != want {
			t.Errorf("MimeFromExtension(%q) = %q, want %q", ext, got, want)
		}
	}
}

func TestLatencyStoreChargesVirtualTime(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	inner := NewMemFS("petrel", clk.Now)
	_ = inner.Write("/f", make([]byte, 1000))
	ls := WithLatency(inner, clk, LatencyProfile{
		ListRTT:     100 * time.Millisecond,
		ReadRTT:     50 * time.Millisecond,
		BytesPerSec: 1000, // 1 KB/s -> 1 s for the payload
	})

	done := make(chan time.Duration, 1)
	start := clk.Now()
	go func() {
		if _, err := ls.Read("/f"); err != nil {
			t.Error(err)
		}
		done <- clk.Since(start)
	}()
	// Advance through the RTT and payload time.
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(50 * time.Millisecond)
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)
	if d := <-done; d != 1050*time.Millisecond {
		t.Fatalf("virtual read time = %v, want 1.05s", d)
	}
}

func TestLatencyStoreDelegates(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	inner := NewMemFS("x", clk.Now)
	ls := WithLatency(inner, clk, LatencyProfile{})
	if err := ls.Write("/a/b.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	infos, err := ls.List("/a")
	if err != nil || len(infos) != 1 {
		t.Fatalf("List = %v, %v", infos, err)
	}
	if _, err := ls.Stat("/a/b.txt"); err != nil {
		t.Fatal(err)
	}
	if err := ls.Delete("/a/b.txt"); err != nil {
		t.Fatal(err)
	}
	if ls.Name() != "x" || ls.Inner() != Store(inner) {
		t.Fatal("wrapper identity broken")
	}
}
