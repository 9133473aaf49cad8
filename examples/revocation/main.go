// Key revocation and forwarding (paper §2.6): a server's private key
// is compromised, so its owner issues a self-authenticating revocation
// certificate. Anyone may distribute it — here the server itself
// answers connects with it, and an agent also finds it in an on-file
// revocation directory. A second server changes domain names the
// graceful way, with a forwarding pointer; and we show a revocation
// overruling a forwarding pointer for the same HostID.
//
// Run: go run ./examples/revocation
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/agent"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/vfs"
)

func main() {
	world, err := lab.NewWorld("revocation")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}

	compromised, err := world.ServeFS("compromised.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	compromised.FS.WriteFile(root, "data", []byte("old data\n"), 0o644) //nolint:errcheck

	moved, err := world.ServeFS("old-name.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	newHome, err := world.ServeFS("new-name.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	newHome.FS.WriteFile(root, "users/dm/notes", []byte("moved but intact\n"), 0o644) //nolint:errcheck

	// A CA-style server publishing a revocation directory: files
	// named by HostID containing certificates. Because revocation
	// certificates are self-authenticating, the CA need not check
	// who submits them.
	ca, err := world.ServeFS("verisign.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}

	cl, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	a := world.NewAnonymousUser(cl, "user")

	// Before revocation the pathname works.
	if _, err := cl.ReadFile("user", compromised.Path.String()+"/data"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("before revocation: read OK from", compromised.Path.Name())

	// The owner issues a revocation certificate (requires the
	// private key) and the CA publishes it under the HostID.
	cert, err := core.NewRevocation(compromised.Key, compromised.Location, world.RNG)
	if err != nil {
		log.Fatal(err)
	}
	revPath := "revocations/" + compromised.Path.HostID.String()
	if err := ca.FS.WriteFile(root, revPath, cert.Marshal(), 0o644); err != nil {
		log.Fatal(err)
	}
	a.SetRevocationDirs([]string{ca.Path.String() + "/revocations"})

	if _, err := cl.ReadFile("user", compromised.Path.String()+"/data"); errors.Is(err, agent.ErrRevoked) {
		fmt.Println("after revocation: access refused —", err)
	} else {
		log.Fatalf("revocation did not take effect: %v", err)
	}

	// Graceful moves: a forwarding pointer from the old pathname to
	// the new one, signed by the old key.
	fwd, err := core.NewForward(moved.Key, moved.Location, newHome.Path, world.RNG)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.AddRevocation(fwd); err != nil {
		log.Fatal(err)
	}
	data, err := cl.ReadFile("user", moved.Path.String()+"/users/dm/notes")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forwarding pointer follows the move: %s", data)

	// If the old key is later revoked, the revocation overrules the
	// forwarding pointer.
	rev2, err := core.NewRevocation(moved.Key, moved.Location, world.RNG)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.AddRevocation(rev2); err != nil {
		log.Fatal(err)
	}
	if _, err := cl.ReadFile("user", moved.Path.String()+"/users/dm/notes"); errors.Is(err, agent.ErrRevoked) {
		fmt.Println("revocation overrules the forwarding pointer —", err)
	} else {
		log.Fatalf("revocation did not overrule forward: %v", err)
	}

	// HostID blocking: one user's agent can block a HostID without
	// any signed certificate; other users are unaffected.
	other := world.NewAnonymousUser(cl, "other")
	_ = other
	a.Block(newHome.Path.HostID)
	if _, err := cl.ReadFile("user", newHome.Path.String()+"/users/dm/notes"); errors.Is(err, agent.ErrBlocked) {
		fmt.Println("user's agent blocks the HostID —", err)
	} else {
		log.Fatalf("block did not take effect: %v", err)
	}
	if _, err := cl.ReadFile("other", newHome.Path.String()+"/users/dm/notes"); err != nil {
		log.Fatalf("another user was affected by the block: %v", err)
	}
	fmt.Println("other users are unaffected by the per-agent block")
}
