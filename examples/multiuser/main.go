// The AFS conundrum (paper §5.1): two mutually distrustful users on
// one client. In AFS, a user who knows her session key can forge
// server replies and pollute the shared cache for other users. In
// SFS, both users name the server by HostID: if they agree on the
// name they are asking for the same public key, so sharing the cache
// is safe — neither knows the server's private key. If one user tries
// to direct the other at a different server, the pathnames (and hence
// the caches) differ.
//
// Run: go run ./examples/multiuser
package main

import (
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/vfs"
)

func main() {
	world, err := lab.NewWorld("multiuser")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}

	srv, err := world.ServeFS("shared.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	srv.FS.WriteFile(root, "pub/shared.txt", []byte("cached once, safely\n"), 0o644) //nolint:errcheck
	srv.FS.WriteFile(root, "home/alice/secret", []byte("alice's diary\n"), 0o600)    //nolint:errcheck
	// Give alice her file.
	id, _, _ := srv.FS.Resolve(root, "home/alice/secret")
	uid := uint32(1000)
	srv.FS.SetAttrs(root, id, vfs.SetAttr{UID: &uid}) //nolint:errcheck

	// One client daemon, two distrustful users. Both retrieved the
	// same self-certifying pathname (say, each with their own
	// password via SRP): same HostID, same mount, shared attribute
	// cache.
	cl, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := world.NewUser(cl, srv, "alice", 1000, "alice's password"); err != nil {
		log.Fatal(err)
	}
	if _, err := world.NewUser(cl, srv, "mallory", 1001, "mallory's password"); err != nil {
		log.Fatal(err)
	}

	base := srv.Path.String()
	// Alice reads the shared file — populating the shared cache.
	if _, err := cl.ReadFile("alice", base+"/pub/shared.txt"); err != nil {
		log.Fatal(err)
	}
	st1, _ := cl.Stats("alice", base)
	// Mallory stats the same file: attribute cache hit, no extra
	// wire RPC needed for attributes — and that is SAFE, because
	// the cache is keyed by a handle under a server both users
	// independently certified by HostID.
	if _, err := cl.Stat("mallory", base+"/pub/shared.txt"); err != nil {
		log.Fatal(err)
	}
	st2, _ := cl.Stats("mallory", base)
	fmt.Printf("shared cache: %d attribute hits after alice warmed it (wire calls %d -> %d)\n",
		st2.AttrHits, st1.Calls, st2.Calls)

	// Per-user credentials still apply over the shared mount:
	// mallory cannot read alice's 0600 file.
	if _, err := cl.ReadFile("alice", base+"/home/alice/secret"); err != nil {
		log.Fatal("alice cannot read her own file:", err)
	}
	if _, err := cl.ReadFile("mallory", base+"/home/alice/secret"); err == nil {
		log.Fatal("mallory read alice's private file!")
	} else {
		fmt.Println("mallory denied on alice's 0600 file:", err)
	}

	// Neither user can forge server responses: they hold session
	// keys derived inside the client daemon, not user-visible
	// shared secrets as in AFS; and the server's identity was
	// pinned by the HostID each user asked for.
	fmt.Println("both users certified", srv.Path.Name(), "— cache sharing is safe by construction")
}
