package main

// The late-sender join pairs each send with its own receive, so every run
// prints the same counts: half the messages have their receive posted
// first.
func Example() {
	main()
	// Output:
	// message-size histogram (bytes -> count):
	//   2^6    250
	//   2^7    250
	//   2^8    250
	//   2^9    250
	//   2^10   250
	//   2^11   250
	//   2^12   250
	//   2^13   250
	// late senders detected: 500 / 1000 pairs
	// blackboard: 4001 entries posted, 5001 jobs executed
}
