// Command profilerctl is the profiling daemon's operator client: it prints
// a running profilerd's machine-readable status — live and closed session
// counters, the service block and the cross-session history — as indented
// JSON. Runs reach a daemon through `profiler -daemon ADDR`.
//
//	profilerctl -addr 127.0.0.1:7101
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"log"
	"os"

	"repro/internal/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profilerctl: ")
	addr := flag.String("addr", "127.0.0.1:7101", "daemon TCP address")
	flag.Parse()

	c, err := client.Dial(*addr, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Shutdown()
	raw, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		log.Fatal(err)
	}
	pretty.WriteByte('\n')
	os.Stdout.Write(pretty.Bytes())
}
