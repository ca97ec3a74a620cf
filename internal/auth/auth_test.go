package auth

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"xtract/internal/clock"
)

func newIssuer() (*Issuer, *clock.Fake) {
	clk := clock.NewFake(time.Unix(1000, 0))
	return NewIssuer([]byte("test-key"), clk), clk
}

func TestIssueAndValidate(t *testing.T) {
	iss, _ := newIssuer()
	tok := iss.Issue("tskluzacek@uchicago.edu", []string{ScopeCrawl, ScopeExtract}, time.Hour)
	claims, err := iss.Validate(tok)
	if err != nil {
		t.Fatal(err)
	}
	if claims.Identity != "tskluzacek@uchicago.edu" {
		t.Fatalf("identity = %q", claims.Identity)
	}
	if !claims.HasScope(ScopeCrawl) || claims.HasScope(ScopeValidate) {
		t.Fatalf("scopes = %v", claims.Scopes)
	}
}

func TestExpiry(t *testing.T) {
	iss, clk := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl}, time.Minute)
	clk.Advance(2 * time.Minute)
	if _, err := iss.Validate(tok); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v", err)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	iss, _ := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl}, time.Hour)
	parts := strings.Split(tok, ".")
	// Flip a character in the body.
	body := []byte(parts[0])
	body[0] ^= 1
	if _, err := iss.Validate(string(body) + "." + parts[1]); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	a := NewIssuer([]byte("key-a"), clk)
	b := NewIssuer([]byte("key-b"), clk)
	tok := a.Issue("u", []string{ScopeCrawl}, time.Hour)
	if _, err := b.Validate(tok); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedToken(t *testing.T) {
	iss, _ := newIssuer()
	for _, tok := range []string{"", "x", "a.b.c", "!!!.sig"} {
		if _, err := iss.Validate(tok); err == nil {
			t.Fatalf("token %q validated", tok)
		}
	}
}

func TestRequireScope(t *testing.T) {
	iss, _ := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl}, time.Hour)
	if _, err := iss.Require(tok, ScopeCrawl); err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Require(tok, ScopeExtract); !errors.Is(err, ErrScope) {
		t.Fatalf("err = %v", err)
	}
	if _, err := iss.Require("garbage", ScopeCrawl); err == nil {
		t.Fatal("garbage token passed Require")
	}
}

func TestRoundTripProperty(t *testing.T) {
	iss, _ := newIssuer()
	f := func(identity string, scopes []string) bool {
		tok := iss.Issue(identity, scopes, time.Hour)
		claims, err := iss.Validate(tok)
		if err != nil {
			return false
		}
		if claims.Identity != identity || len(claims.Scopes) != len(scopes) {
			return false
		}
		for i := range scopes {
			if claims.Scopes[i] != scopes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestFlippedSignatureRefusedAfterMemo: the memo is keyed by the whole
// token, so a token one signature byte away from a memoised one is
// verified, and refused.
func TestFlippedSignatureRefusedAfterMemo(t *testing.T) {
	iss, _ := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl}, time.Hour)
	if _, err := iss.Validate(tok); err != nil {
		t.Fatal(err)
	}
	if _, ok := iss.memo[tok]; !ok {
		t.Fatal("a verified token was not memoised")
	}
	for i := strings.IndexByte(tok, '.') + 1; i < len(tok); i++ {
		b := []byte(tok)
		b[i] ^= 1
		if _, err := iss.Validate(string(b)); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("signature byte %d flipped: err = %v, want ErrBadSignature", i, err)
		}
	}
	if len(iss.memo) != 1 {
		t.Fatalf("memo holds %d tokens, want only the genuine one", len(iss.memo))
	}
}

// TestMemoisedTokenExpires: a hit is checked for expiry on every use.
func TestMemoisedTokenExpires(t *testing.T) {
	iss, clk := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl}, time.Minute)
	if _, err := iss.Require(tok, ScopeCrawl); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	if _, err := iss.Require(tok, ScopeCrawl); err != nil {
		t.Fatalf("at its expiry instant: %v", err)
	}
	clk.Advance(time.Nanosecond)
	if _, err := iss.Require(tok, ScopeCrawl); !errors.Is(err, ErrExpired) {
		t.Fatalf("past its expiry: err = %v, want ErrExpired", err)
	}
}

// TestMemoStaysAtItsBound: tokens minted without limit hold at most
// memoTokens entries, and a token longer than memoTokenBytes is verified
// every time instead of remembered.
func TestMemoStaysAtItsBound(t *testing.T) {
	iss, _ := newIssuer()
	for i := 0; i < memoTokens+100; i++ {
		tok := iss.Issue(fmt.Sprintf("user-%d", i), []string{ScopeCrawl}, time.Hour)
		if _, err := iss.Validate(tok); err != nil {
			t.Fatal(err)
		}
		if len(iss.memo) > memoTokens {
			t.Fatalf("after %d tokens the memo holds %d, bound %d", i+1, len(iss.memo), memoTokens)
		}
	}
	if len(iss.memo) != memoTokens {
		t.Fatalf("memo holds %d tokens, want %d", len(iss.memo), memoTokens)
	}
	long := iss.Issue(strings.Repeat("x", memoTokenBytes), []string{ScopeCrawl}, time.Hour)
	if _, err := iss.Validate(long); err != nil {
		t.Fatal(err)
	}
	if _, ok := iss.memo[long]; ok {
		t.Fatalf("a %d-byte token was memoised, bound %d bytes", len(long), memoTokenBytes)
	}
}

// TestConcurrentRequire: requests validating memoised and new tokens, and
// the memo evicting at its bound, share the issuer safely (run it with
// -race).
func TestConcurrentRequire(t *testing.T) {
	iss, _ := newIssuer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := iss.Issue(fmt.Sprintf("g%d", g), []string{ScopeExtract}, time.Hour)
			for i := 0; i < 300; i++ {
				tok := mine
				if i%3 == 0 {
					tok = iss.Issue(fmt.Sprintf("g%d-%d", g, i), []string{ScopeExtract}, time.Hour)
				}
				claims, err := iss.Require(tok, ScopeExtract)
				if err != nil || !strings.HasPrefix(claims.Identity, fmt.Sprintf("g%d", g)) {
					t.Errorf("Require = %+v, %v", claims, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoisedRequireAllocatesNothing: a request with a token seen before
// costs the front door no allocation. The race detector changes
// allocation counts, so the test skips under it.
func TestMemoisedRequireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	iss, _ := newIssuer()
	tok := iss.Issue("u", []string{ScopeCrawl, ScopeExtract}, time.Hour)
	require := func() {
		if _, err := iss.Require(tok, ScopeExtract); err != nil {
			t.Fatal(err)
		}
	}
	require()
	if n := testing.AllocsPerRun(1000, require); n != 0 {
		t.Fatalf("a memoised Require allocated %.0f times, budget 0", n)
	}
}
