// Package auth implements SRB authentication: challenge–response
// password proof (the SRB "ENCRYPT1" scheme, realised here with
// HMAC-SHA256), bounded-lifetime session keys (MySRB's 60-minute
// in-memory cookies), server-to-server peer secrets for the federated
// single sign-on, and time/use-limited tickets for delegated access.
//
// Passwords never cross the wire: the client proves knowledge of the
// derived key by answering a random challenge.
package auth

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"

	"gosrb/internal/types"
)

// DefaultSessionTTL matches the paper: "These session keys have a
// maximum time-limit set on them (currently 60 minutes)".
const DefaultSessionTTL = 60 * time.Minute

// DeriveKey derives the stored verifier / client proof key from a user
// name and password.
func DeriveKey(user, password string) []byte {
	h := sha256.Sum256([]byte("srb-key-v1:" + user + ":" + password))
	return h[:]
}

// Respond computes the response to a challenge given the derived key.
func Respond(key []byte, challenge string) string {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte(challenge))
	return hex.EncodeToString(mac.Sum(nil))
}

// NewChallenge returns a fresh random challenge string.
func NewChallenge() (string, error) {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", types.E("challenge", "", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// Authenticator verifies users and peers and manages sessions. Safe for
// concurrent use.
type Authenticator struct {
	mu       sync.Mutex
	keys     map[string][]byte // user -> derived key
	peers    map[string][]byte // peer server/zone -> shared secret key
	sessions map[string]types.Session
	ttl      time.Duration
	now      func() time.Time
}

// New returns an Authenticator with the default session TTL.
func New() *Authenticator {
	return &Authenticator{
		keys:     make(map[string][]byte),
		peers:    make(map[string][]byte),
		sessions: make(map[string]types.Session),
		ttl:      DefaultSessionTTL,
		now:      time.Now,
	}
}

// SetTTL overrides the session lifetime.
func (a *Authenticator) SetTTL(ttl time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ttl = ttl
}

// SetClock overrides the time source (tests).
func (a *Authenticator) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// Register stores a user's password-derived key.
func (a *Authenticator) Register(user, password string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.keys[user] = DeriveKey(user, password)
}

// RegisterPeer stores the shared secret for a federated peer server.
func (a *Authenticator) RegisterPeer(peer, secret string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.peers[peer] = DeriveKey("peer:"+peer, secret)
}

// PeerKey returns the key a local server uses to answer challenges from
// peer, and whether the peer is known.
func (a *Authenticator) PeerKey(peer string) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	k, ok := a.peers[peer]
	return k, ok
}

// VerifyUser checks a challenge response for user.
func (a *Authenticator) VerifyUser(user, challenge, response string) bool {
	a.mu.Lock()
	key, ok := a.keys[user]
	a.mu.Unlock()
	if !ok {
		return false
	}
	return hmac.Equal([]byte(Respond(key, challenge)), []byte(response))
}

// VerifyPeer checks a challenge response for a federated peer.
func (a *Authenticator) VerifyPeer(peer, challenge, response string) bool {
	key, ok := a.PeerKey(peer)
	if !ok {
		return false
	}
	return hmac.Equal([]byte(Respond(key, challenge)), []byte(response))
}

// Login verifies the response and mints a session.
func (a *Authenticator) Login(user, challenge, response string) (types.Session, error) {
	if !a.VerifyUser(user, challenge, response) {
		return types.Session{}, types.E("login", user, types.ErrAuth)
	}
	return a.NewSession(user)
}

// NewSession mints a session for an already-verified user.
func (a *Authenticator) NewSession(user string) (types.Session, error) {
	var b [18]byte
	if _, err := rand.Read(b[:]); err != nil {
		return types.Session{}, types.E("session", user, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	s := types.Session{
		Key:     hex.EncodeToString(b[:]),
		User:    user,
		Created: now,
		Expires: now.Add(a.ttl),
	}
	a.sessions[s.Key] = s
	return s, nil
}

// Validate resolves a session key to its user, performing the paper's
// "security checks on the session keys when validating a user request":
// the key must exist and be unexpired.
func (a *Authenticator) Validate(key string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sessions[key]
	if !ok {
		return "", types.E("session", "", types.ErrAuth)
	}
	if !s.Valid(a.now()) {
		delete(a.sessions, key)
		return "", types.E("session", s.User, types.ErrAuth)
	}
	return s.User, nil
}

// Logout invalidates a session key. Unknown keys are a no-op.
func (a *Authenticator) Logout(key string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.sessions, key)
}

// Sweep drops expired sessions and returns how many were removed.
func (a *Authenticator) Sweep() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	n := 0
	for k, s := range a.sessions {
		if !s.Valid(now) {
			delete(a.sessions, k)
			n++
		}
	}
	return n
}

// Ticket grants time- and use-limited access to a logical path at a
// given level, independent of the grantee's ACLs.
type Ticket struct {
	ID      string
	Issuer  string
	Path    string
	Level   string // acl level name; kept as string to avoid a dependency cycle
	Uses    int    // remaining uses; negative means unlimited
	Expires time.Time
}

// TicketStore issues and redeems tickets. Safe for concurrent use.
type TicketStore struct {
	mu      sync.Mutex
	tickets map[string]*Ticket
	// sweepAt is the count of tickets at which Issue next drops the
	// expired and used-up ones: twice what the last sweep left, so a
	// ticket never redeemed is not kept for good and sweeping costs O(1)
	// an issue.
	sweepAt int
	now     func() time.Time
}

// minTicketSweep is the least sweepAt, so a small store is not swept on
// every issue.
const minTicketSweep = 64

// NewTicketStore returns an empty store.
func NewTicketStore() *TicketStore {
	return &TicketStore{tickets: make(map[string]*Ticket), now: time.Now}
}

// SetClock overrides the time source (tests).
func (ts *TicketStore) SetClock(now func() time.Time) { ts.now = now }

// Issue creates a ticket for path at level, expiring at expires, with
// the given use budget (negative = unlimited).
func (ts *TicketStore) Issue(issuer, path, level string, uses int, expires time.Time) (*Ticket, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, types.E("ticket", path, err)
	}
	t := &Ticket{
		ID:      hex.EncodeToString(b[:]),
		Issuer:  issuer,
		Path:    types.CleanPath(path),
		Level:   level,
		Uses:    uses,
		Expires: expires,
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.tickets) >= ts.sweepAt {
		now := ts.now()
		for id, old := range ts.tickets {
			if old.Uses == 0 || now.After(old.Expires) {
				delete(ts.tickets, id)
			}
		}
		ts.sweepAt = max(2*len(ts.tickets), minTicketSweep)
	}
	ts.tickets[t.ID] = t
	return t, nil
}

// Redeem consumes one use of the ticket for the given path and returns
// the granted level name and the issuing user. The path must equal the
// ticket path or lie within it (collection tickets cover their subtree).
func (ts *TicketStore) Redeem(id, path string) (level, issuer string, err error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.tickets[id]
	if !ok {
		return "", "", types.E("ticket", path, types.ErrAuth)
	}
	if ts.now().After(t.Expires) {
		delete(ts.tickets, id)
		return "", "", types.E("ticket", path, types.ErrAuth)
	}
	if !types.WithinOrEqual(t.Path, path) {
		return "", "", types.E("ticket", path, types.ErrPermission)
	}
	if t.Uses == 0 {
		delete(ts.tickets, id)
		return "", "", types.E("ticket", path, types.ErrAuth)
	}
	if t.Uses > 0 {
		t.Uses--
	}
	return t.Level, t.Issuer, nil
}

// Revoke removes a ticket.
func (ts *TicketStore) Revoke(id string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	delete(ts.tickets, id)
}
