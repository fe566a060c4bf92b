package main

// Example holds the program's output to a golden: every number in it is
// virtual, so it prints the same bytes on every run.
func Example() {
	main()
	// Output:
	// ring + ping-pong on 4 simulated nodes finished at 696.406us
	// rank 0: one-way latency 6.67 us, 51 msgs sent, 6 buffers posted
	// rank 1: one-way latency 6.83 us, 51 msgs sent, 6 buffers posted
	// rank 2: one-way latency 6.70 us, 51 msgs sent, 6 buffers posted
	// rank 3: one-way latency 6.56 us, 51 msgs sent, 6 buffers posted
}
