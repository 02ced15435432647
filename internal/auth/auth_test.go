package auth

import (
	"errors"
	"testing"
	"time"

	"gosrb/internal/types"
)

func TestChallengeResponseRoundTrip(t *testing.T) {
	a := New()
	a.Register("sekar", "secret")
	ch, err := NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	resp := Respond(DeriveKey("sekar", "secret"), ch)
	if !a.VerifyUser("sekar", ch, resp) {
		t.Error("valid response rejected")
	}
	if a.VerifyUser("sekar", ch, Respond(DeriveKey("sekar", "wrong"), ch)) {
		t.Error("wrong password accepted")
	}
	if a.VerifyUser("ghost", ch, resp) {
		t.Error("unknown user accepted")
	}
	ch2, _ := NewChallenge()
	if ch == ch2 {
		t.Error("challenges must be unique")
	}
	if a.VerifyUser("sekar", ch2, resp) {
		t.Error("response replayed against a different challenge accepted")
	}
}

func TestLoginAndSessionLifecycle(t *testing.T) {
	a := New()
	now := time.Unix(1_000_000, 0)
	a.SetClock(func() time.Time { return now })
	a.Register("mwan", "pw")
	ch, _ := NewChallenge()
	s, err := a.Login("mwan", ch, Respond(DeriveKey("mwan", "pw"), ch))
	if err != nil {
		t.Fatal(err)
	}
	if s.Expires.Sub(s.Created) != DefaultSessionTTL {
		t.Errorf("TTL = %v", s.Expires.Sub(s.Created))
	}
	user, err := a.Validate(s.Key)
	if err != nil || user != "mwan" {
		t.Errorf("Validate = %q, %v", user, err)
	}
	// Advance past the 60-minute limit.
	now = now.Add(61 * time.Minute)
	if _, err := a.Validate(s.Key); !errors.Is(err, types.ErrAuth) {
		t.Errorf("expired session: %v", err)
	}
	if _, err := a.Login("mwan", ch, "bogus"); !errors.Is(err, types.ErrAuth) {
		t.Errorf("bad login: %v", err)
	}
}

func TestLogoutAndSweep(t *testing.T) {
	a := New()
	now := time.Unix(0, 0)
	a.SetClock(func() time.Time { return now })
	a.SetTTL(time.Minute)
	s1, _ := a.NewSession("u1")
	s2, _ := a.NewSession("u2")
	a.Logout(s1.Key)
	if _, err := a.Validate(s1.Key); err == nil {
		t.Error("logged-out session validated")
	}
	now = now.Add(2 * time.Minute)
	if n := a.Sweep(); n != 1 {
		t.Errorf("Sweep removed %d, want 1", n)
	}
	if _, err := a.Validate(s2.Key); err == nil {
		t.Error("swept session validated")
	}
}

func TestPeerAuth(t *testing.T) {
	// Two servers share a zone secret out of band; each can answer the
	// other's challenges — the single sign-on of the federation.
	a1, a2 := New(), New()
	a1.RegisterPeer("srb2", "zone-secret")
	a2.RegisterPeer("srb2", "zone-secret")
	ch, _ := NewChallenge()
	key, ok := a2.PeerKey("srb2")
	if !ok {
		t.Fatal("peer key missing")
	}
	if !a1.VerifyPeer("srb2", ch, Respond(key, ch)) {
		t.Error("peer response rejected")
	}
	if a1.VerifyPeer("srb3", ch, Respond(key, ch)) {
		t.Error("unknown peer accepted")
	}
	if a1.VerifyPeer("srb2", ch, "wrong") {
		t.Error("bad peer response accepted")
	}
}

func TestTicketLifecycle(t *testing.T) {
	ts := NewTicketStore()
	now := time.Unix(0, 0)
	ts.SetClock(func() time.Time { return now })
	tk, err := ts.Issue("owner", "/coll", "read", 2, now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// Covers the path itself and its subtree.
	if lvl, issuer, err := ts.Redeem(tk.ID, "/coll/file"); err != nil || lvl != "read" || issuer != "owner" {
		t.Errorf("redeem = %q by %q, %v", lvl, issuer, err)
	}
	if _, _, err := ts.Redeem(tk.ID, "/other"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("out-of-scope redeem: %v", err)
	}
	if _, _, err := ts.Redeem(tk.ID, "/coll"); err != nil {
		t.Errorf("second use: %v", err)
	}
	if _, _, err := ts.Redeem(tk.ID, "/coll"); !errors.Is(err, types.ErrAuth) {
		t.Errorf("exhausted ticket: %v", err)
	}
}

func TestTicketExpiryAndRevoke(t *testing.T) {
	ts := NewTicketStore()
	now := time.Unix(0, 0)
	ts.SetClock(func() time.Time { return now })
	tk, _ := ts.Issue("o", "/p", "read", -1, now.Add(time.Minute))
	now = now.Add(2 * time.Minute)
	if _, _, err := ts.Redeem(tk.ID, "/p"); !errors.Is(err, types.ErrAuth) {
		t.Errorf("expired ticket: %v", err)
	}
	now = time.Unix(0, 0)
	tk2, _ := ts.Issue("o", "/p", "write", -1, now.Add(time.Hour))
	ts.Revoke(tk2.ID)
	if _, _, err := ts.Redeem(tk2.ID, "/p"); err == nil {
		t.Error("revoked ticket redeemed")
	}
	// Unlimited tickets survive many redemptions.
	tk3, _ := ts.Issue("o", "/p", "read", -1, now.Add(time.Hour))
	for i := 0; i < 10; i++ {
		if _, _, err := ts.Redeem(tk3.ID, "/p"); err != nil {
			t.Fatalf("unlimited use %d: %v", i, err)
		}
	}
}

// TestTicketStoreDropsTicketsNeverRedeemed: an expired or used-up ticket
// that is never redeemed again is dropped by a later Issue, which sweeps
// once the store has doubled since its last sweep, so a store of
// abandoned tickets stays bounded.
func TestTicketStoreDropsTicketsNeverRedeemed(t *testing.T) {
	ts := NewTicketStore()
	now := time.Unix(0, 0)
	ts.SetClock(func() time.Time { return now })
	expired, _ := ts.Issue("o", "/p", "read", -1, now.Add(time.Minute))
	usedUp, _ := ts.Issue("o", "/p", "read", 1, now.Add(time.Hour))
	if _, _, err := ts.Redeem(usedUp.ID, "/p"); err != nil {
		t.Fatal(err)
	}
	live, _ := ts.Issue("o", "/p", "read", -1, now.Add(time.Hour))
	now = now.Add(2 * time.Minute)
	for i := 0; i < 10*minTicketSweep; i++ {
		if _, err := ts.Issue("o", "/p", "read", -1, now.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Second)
		if n := len(ts.tickets); n > minTicketSweep {
			t.Fatalf("after %d abandoned tickets the store holds %d, want at most %d", i+1, n, minTicketSweep)
		}
	}
	for _, tk := range []*Ticket{expired, usedUp} {
		if _, ok := ts.tickets[tk.ID]; ok {
			t.Errorf("ticket %+v was never dropped", tk)
		}
	}
	if _, _, err := ts.Redeem(live.ID, "/p"); err != nil {
		t.Errorf("a live ticket was dropped: %v", err)
	}
}

func TestDeriveKeyDomainSeparation(t *testing.T) {
	// Different users with the same password get different keys.
	if string(DeriveKey("a", "pw")) == string(DeriveKey("b", "pw")) {
		t.Error("keys must be user-specific")
	}
	if string(DeriveKey("a", "pw")) != string(DeriveKey("a", "pw")) {
		t.Error("derivation must be deterministic")
	}
}
