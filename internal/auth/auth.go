// Package auth is the stand-in for Globus Auth: HMAC-signed bearer tokens
// carrying an identity and a set of scopes, with expiry. The Xtract
// service requires a valid token with the appropriate scope to initiate
// crawls, extractions, and validations.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"xtract/internal/clock"
)

// Scopes understood by the Xtract service.
const (
	ScopeCrawl    = "urn:xtract:crawl"
	ScopeExtract  = "urn:xtract:extract"
	ScopeValidate = "urn:xtract:validate"
	ScopeTransfer = "urn:xtract:transfer"
)

// Errors returned during validation.
var (
	ErrBadToken     = errors.New("auth: malformed token")
	ErrBadSignature = errors.New("auth: signature mismatch")
	ErrExpired      = errors.New("auth: token expired")
	ErrScope        = errors.New("auth: missing required scope")
)

// Claims is the signed token body.
type Claims struct {
	Identity string    `json:"identity"`
	Scopes   []string  `json:"scopes"`
	Expires  time.Time `json:"expires"`
}

// HasScope reports whether the claims grant scope.
func (c Claims) HasScope(scope string) bool {
	for _, s := range c.Scopes {
		if s == scope {
			return true
		}
	}
	return false
}

// Issuer mints and validates tokens with a shared HMAC key.
type Issuer struct {
	key []byte
	clk clock.Clock

	// memo holds the claims of tokens whose signature verified, keyed by
	// the whole token: a client sends one token on every request, and
	// the same bytes under the same key verify the same way each time.
	// Expiry is checked on every use.
	mu   sync.RWMutex
	memo map[string]Claims
}

// The memo's bound: at most memoTokens tokens, each at most memoTokenBytes
// long, so that tokens minted without limit (POST /api/v1/token) hold a
// bounded amount of memory. A longer token is verified on every use.
const (
	memoTokens     = 1024
	memoTokenBytes = 1024
)

// NewIssuer returns an issuer using key for HMAC-SHA256 signing.
func NewIssuer(key []byte, clk clock.Clock) *Issuer {
	return &Issuer{key: append([]byte(nil), key...), clk: clk, memo: make(map[string]Claims)}
}

// Issue mints a token for identity with the given scopes and lifetime.
func (i *Issuer) Issue(identity string, scopes []string, ttl time.Duration) string {
	claims := Claims{
		Identity: identity,
		Scopes:   append([]string(nil), scopes...),
		Expires:  i.clk.Now().Add(ttl),
	}
	body, _ := json.Marshal(claims)
	b64 := base64.RawURLEncoding.EncodeToString(body)
	return b64 + "." + i.sign(b64)
}

func (i *Issuer) sign(b64 string) string {
	mac := hmac.New(sha256.New, i.key)
	mac.Write([]byte(b64))
	return base64.RawURLEncoding.EncodeToString(mac.Sum(nil))
}

// Validate checks the token's signature and expiry and returns its claims.
// A token seen before is not verified again, only checked for expiry; the
// claims' Scopes are then shared with its other callers and must not be
// written.
func (i *Issuer) Validate(token string) (Claims, error) {
	i.mu.RLock()
	claims, ok := i.memo[token]
	i.mu.RUnlock()
	if !ok {
		var err error
		if claims, err = i.verify(token); err != nil {
			return Claims{}, err
		}
		if len(token) <= memoTokenBytes {
			i.remember(token, claims)
		}
	}
	if i.clk.Now().After(claims.Expires) {
		return Claims{}, ErrExpired
	}
	return claims, nil
}

// verify checks the token's signature and decodes its claims.
func (i *Issuer) verify(token string) (Claims, error) {
	body64, sig, ok := strings.Cut(token, ".")
	if !ok || strings.Contains(sig, ".") {
		return Claims{}, ErrBadToken
	}
	if !hmac.Equal([]byte(i.sign(body64)), []byte(sig)) {
		return Claims{}, ErrBadSignature
	}
	body, err := base64.RawURLEncoding.DecodeString(body64)
	if err != nil {
		return Claims{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	var claims Claims
	if err := json.Unmarshal(body, &claims); err != nil {
		return Claims{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return claims, nil
}

// remember enters a verified token into the memo, first dropping an
// arbitrary entry when it is full.
func (i *Issuer) remember(token string, claims Claims) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if _, ok := i.memo[token]; !ok && len(i.memo) >= memoTokens {
		for victim := range i.memo {
			delete(i.memo, victim)
			break
		}
	}
	i.memo[token] = claims
}

// Require validates the token and checks it grants scope.
func (i *Issuer) Require(token, scope string) (Claims, error) {
	claims, err := i.Validate(token)
	if err != nil {
		return Claims{}, err
	}
	if !claims.HasScope(scope) {
		return Claims{}, fmt.Errorf("%w: %s", ErrScope, scope)
	}
	return claims, nil
}
