// Certification authorities as file systems (paper §2.4): a CA in SFS
// is nothing more than an ordinary file system serving symbolic links
// whose targets are self-certifying pathnames. This example builds
// one, resolves names through it with a certification path, and then
// republishes it with the read-only dialect so untrusted replicas can
// serve it — the deployment the paper prescribes for the high
// integrity/availability needs of interactively-queried CAs.
//
// Run: go run ./examples/certauth
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/lab"
	"repro/internal/sfsro"
	"repro/internal/vfs"
)

func main() {
	world, err := lab.NewWorld("certauth")
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()
	root := vfs.Cred{UID: 0, GIDs: []uint32{0}}

	// Two ordinary servers the CA will certify.
	redhat, err := world.ServeFS("redhat.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	mit, err := world.ServeFS("sfs.lcs.mit.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	redhat.FS.WriteFile(root, "pub/release.txt", []byte("redhat 6.1 sources\n"), 0o644)     //nolint:errcheck
	mit.FS.WriteFile(root, "users/dm/plan.txt", []byte("separate key management\n"), 0o644) //nolint:errcheck

	// The CA: a file system of symbolic links. Creating a
	// certification authority requires no special machinery —
	// "symbolic links do the job".
	ca, err := world.ServeFS("verisign.example.com", 60000)
	if err != nil {
		log.Fatal(err)
	}
	ca.FS.SymlinkAt(root, "links/redhat", redhat.Path.String()) //nolint:errcheck
	ca.FS.SymlinkAt(root, "links/mit", mit.Path.String())       //nolint:errcheck
	fmt.Println("CA serves links at", ca.Path.String()+"/links")

	// A user configures the CA as a certification path: names under
	// /sfs that are not self-certifying are resolved through it.
	cl, err := world.NewClient(client.Config{EnhancedCaching: true})
	if err != nil {
		log.Fatal(err)
	}
	a := world.NewAnonymousUser(cl, "user")
	a.SetCertPaths([]string{ca.Path.String() + "/links"})

	data, err := cl.ReadFile("user", "/sfs/redhat/pub/release.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via CA, /sfs/redhat resolves and reads: %s", data)
	data, err = cl.ReadFile("user", "/sfs/mit/users/dm/plan.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via CA, /sfs/mit reads: %s", data)

	// Republish the CA's links with the read-only dialect: one
	// offline signature over a hash tree; the private key never
	// touches the serving machines.
	db, err := sfsro.BuildFromVFS(ca.FS, ca.Location, ca.Key, 1, 24*time.Hour, world.RNG, time.Now())
	if err != nil {
		log.Fatal(err)
	}
	replica, err := sfsro.NewReplica(db)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go replica.ListenAndServe(l) //nolint:errcheck

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	rocl, err := sfsro.DialClient(conn, replica.Path(), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer rocl.Close()
	target, err := rocl.ReadLink("links/redhat")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("untrusted replica serves verified link: redhat ->", target)
	fmt.Printf("replica database: %d content-addressed blobs, version %d\n",
		len(db.Blobs), rocl.Version())

	// Finally, mount the read-only CA through the normal /sfs
	// namespace (a second "CA" location served only read-only) and
	// point the certification path at it: the client transparently
	// falls back to the read-only dialect when a location is not
	// served read-write.
	roKey := ca.Key // reuse the CA's publisher key under a new location
	roDB, err := sfsro.BuildFromVFS(ca.FS, "ro-ca.example.com", roKey, 2, 24*time.Hour, world.RNG, time.Now())
	if err != nil {
		log.Fatal(err)
	}
	roPath, err := world.ServeReadOnly(roDB)
	if err != nil {
		log.Fatal(err)
	}
	a.SetCertPaths([]string{roPath.String() + "/links"})
	data, err = cl.ReadFile("user", "/sfs/mit/users/dm/plan.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via the READ-ONLY CA mount at %s: %s", roPath.Name(), data)
}
