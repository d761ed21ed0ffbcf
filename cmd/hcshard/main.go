// Command hcshard is one shard worker of the distributed exact engine: the
// coordinator (internal/dist.Cluster with transport "proc") forks one hcshard
// per shard, ships it the graph and program spec over the coordinator's
// unix-domain socket, and drives it round by round with the same frame
// protocol goroutine workers speak. It has no standalone mode — running it
// outside a coordinator is an error.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"dhc/internal/dist"
)

func main() {
	var (
		socket = flag.String("socket", "", "coordinator unix socket path (required)")
		shard  = flag.Int("shard", -1, "shard index (required)")
	)
	flag.Parse()
	if *socket == "" || *shard < 0 {
		fmt.Fprintln(os.Stderr, "hcshard: -socket and -shard are required (this binary is launched by the dist coordinator)")
		os.Exit(2)
	}
	conn, err := net.Dial("unix", *socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcshard: dial %s: %v\n", *socket, err)
		os.Exit(1)
	}
	defer conn.Close()
	if err := dist.RunWorker(conn, *shard, dist.FaultFromEnv()); err != nil {
		fmt.Fprintf(os.Stderr, "hcshard: shard %d: %v\n", *shard, err)
		os.Exit(1)
	}
}
