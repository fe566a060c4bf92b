package main

// Example holds the program's output to a golden: every number in it is
// virtual, so it prints the same bytes on every run.
func Example() {
	main()
	// Output:
	// bursty producer/consumer: 12 bursts x 48 msgs x 256B, pre-post 1
	// hardware         time=47.8282ms  RNR=575   retx=4566  demoted=0    maxPosted=1   finalPosted=2
	// static           time=30.1238ms  RNR=0     retx=0     demoted=0    maxPosted=1   finalPosted=2
	// dynamic          time=4.39675ms  RNR=0     retx=0     demoted=0    maxPosted=128 finalPosted=129
}
