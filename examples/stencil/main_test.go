package main

// Example holds the program's output to a golden: every number in it is
// virtual, so it prints the same bytes on every run.
func Example() {
	main()
	// Output:
	// 2-D stencil, 8 ranks, 40 steps, starving pre-post (1 buffer/connection)
	// hardware  time=2.32189ms  maxPosted=1   growth=0   RNR=0   total heat=279821.0
	// static    time=2.55225ms  maxPosted=1   growth=0   RNR=0   total heat=279821.0
	// dynamic   time=2.36809ms  maxPosted=5   growth=26  RNR=0   total heat=279821.0
}
