package agent

import (
	"net"
	"strings"
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/sfsrpc"
)

func TestProxyAgentSigning(t *testing.T) {
	uk, _, _ := agKeys(t)
	// The home agent has the keys.
	home := New("dm", prng.NewSeeded([]byte("home")))
	home.AddKey(uk)
	// The lab agent has none; it forwards over a pipe.
	laptop := New("dm", prng.NewSeeded([]byte("lab")))
	c1, c2 := net.Pipe()
	go home.ServeSigner(c2) //nolint:errcheck
	laptop.UseRemoteSigner(c1, "lab-host")

	ai := testAI()
	raw, ok := laptop.Authenticate(ai, 9, "sfscd:dm", 0)
	if !ok {
		t.Fatal("proxy signing declined")
	}
	msg, err := sfsrpc.ParseAuthMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := msg.Verify(ai, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(&uk.PublicKey) {
		t.Fatal("proxy signature under wrong key")
	}
	// The audit path records the hop, and the audit trail lives at
	// the home agent.
	if !strings.Contains(msg.Req.AuthPath, "lab-host") {
		t.Fatalf("audit path %q missing the proxy hop", msg.Req.AuthPath)
	}
	audit := home.Audit()
	if len(audit) != 1 || !strings.Contains(audit[0].AuthPath, "lab-host!sfscd:dm") {
		t.Fatalf("home audit: %+v", audit)
	}
	if len(laptop.Audit()) != 0 {
		t.Fatal("laptop recorded a signing it never performed")
	}
}

func TestProxyDeclinesPropagate(t *testing.T) {
	// A keyless home agent declines; the proxy must too.
	home := New("dm", prng.NewSeeded([]byte("home2")))
	laptop := New("dm", prng.NewSeeded([]byte("lab2")))
	c1, c2 := net.Pipe()
	go home.ServeSigner(c2) //nolint:errcheck
	laptop.UseRemoteSigner(c1, "lab")
	if _, ok := laptop.Authenticate(testAI(), 1, "", 0); ok {
		t.Fatal("proxy signed with a keyless home agent")
	}
}

func TestProxyConnectionLossDeclines(t *testing.T) {
	uk, _, _ := agKeys(t)
	home := New("dm", prng.NewSeeded([]byte("home3")))
	home.AddKey(uk)
	laptop := New("dm", prng.NewSeeded([]byte("lab3")))
	c1, c2 := net.Pipe()
	go home.ServeSigner(c2) //nolint:errcheck
	laptop.UseRemoteSigner(c1, "lab")
	c1.Close() // session torn down
	if _, ok := laptop.Authenticate(testAI(), 1, "", 0); ok {
		t.Fatal("proxy signed over a dead connection")
	}
}

func TestClearRemoteSignerRestoresLocal(t *testing.T) {
	uk, kb, _ := agKeys(t)
	home := New("dm", prng.NewSeeded([]byte("home4")))
	home.AddKey(uk)
	laptop := New("dm", prng.NewSeeded([]byte("lab4")))
	laptop.AddKey(kb) // laptop has its own (different) key
	c1, c2 := net.Pipe()
	go home.ServeSigner(c2) //nolint:errcheck
	laptop.UseRemoteSigner(c1, "lab")
	ai := testAI()
	raw, ok := laptop.Authenticate(ai, 1, "", 0)
	if !ok {
		t.Fatal("proxy declined")
	}
	m, _ := sfsrpc.ParseAuthMsg(raw)
	p, _ := m.Verify(ai, 1)
	if !p.Equal(&uk.PublicKey) {
		t.Fatal("proxy used local key")
	}
	laptop.ClearRemoteSigner()
	raw, ok = laptop.Authenticate(ai, 2, "", 0)
	if !ok {
		t.Fatal("local signing declined after clear")
	}
	m, _ = sfsrpc.ParseAuthMsg(raw)
	p, _ = m.Verify(ai, 2)
	if !p.Equal(&kb.PublicKey) {
		t.Fatal("still proxying after ClearRemoteSigner")
	}
}

// TestProxyApproveDecidedAtHome: a proxy agent forwards approvals; the
// home agent decides and audits them with the hop.
func TestProxyApproveDecidedAtHome(t *testing.T) {
	uk, _, _ := agKeys(t)
	home := New("dm", prng.NewSeeded([]byte("home3")))
	home.AddKey(uk)
	laptop := New("dm", prng.NewSeeded([]byte("lab3")))
	c1, c2 := net.Pipe()
	go home.ServeSigner(c2) //nolint:errcheck
	laptop.UseRemoteSigner(c1, "lab-host")
	defer laptop.ClearRemoteSigner()

	ai := testAI()
	prior, ok := laptop.Authenticate(ai, 1, "sfscd:dm", 0)
	if !ok {
		t.Fatal("proxy signing declined")
	}
	if !laptop.ApproveResume(ai, 2, "sfscd:dm", prior) {
		t.Fatal("proxy approval declined")
	}
	audit := home.Audit()
	if len(audit) != 2 || audit[1].Op != AuditApprove || audit[1].AuthPath != "lab-host!sfscd:dm" {
		t.Fatalf("home audit: %+v", audit)
	}
	if len(laptop.Audit()) != 0 {
		t.Fatal("laptop recorded an approval it never made")
	}

	// A home agent without the key declines through the proxy too.
	laptop.ClearRemoteSigner()
	bare := New("dm", prng.NewSeeded([]byte("home4")))
	c3, c4 := net.Pipe()
	go bare.ServeSigner(c4) //nolint:errcheck
	laptop.UseRemoteSigner(c3, "lab-host")
	if laptop.ApproveResume(ai, 3, "sfscd:dm", prior) {
		t.Fatal("proxy approved where the home agent holds no key")
	}
}
