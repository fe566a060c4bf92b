package main

// Example holds the program's output to a golden: every number in it is
// virtual, so it prints the same bytes on every run.
func Example() {
	main()
	// Output:
	// rank  7 = grid(1,3): row rank 3, col rank 1, row sum 26
	// rank  6 = grid(1,2): row rank 2, col rank 1, row sum 26
	// rank  4 = grid(1,0): row rank 0, col rank 1, row sum 26
	// rank  5 = grid(1,1): row rank 1, col rank 1, row sum 26
	// rank 11 = grid(2,3): row rank 3, col rank 2, row sum 42
	// rank 10 = grid(2,2): row rank 2, col rank 2, row sum 42
	// rank  8 = grid(2,0): row rank 0, col rank 2, row sum 42
	// rank  9 = grid(2,1): row rank 1, col rank 2, row sum 42
	// rank  1 = grid(0,1): row rank 1, col rank 0, row sum 10
	// rank  3 = grid(0,3): row rank 3, col rank 0, row sum 10
	// rank  2 = grid(0,2): row rank 2, col rank 0, row sum 10
	// rank 15 = grid(3,3): row rank 3, col rank 3, row sum 58
	// rank 14 = grid(3,2): row rank 2, col rank 3, row sum 58
	// rank 12 = grid(3,0): row rank 0, col rank 3, row sum 58
	// rank 13 = grid(3,1): row rank 1, col rank 3, row sum 58
	// rank  0 = grid(0,0): row rank 0, col rank 0, row sum 10
	// grand total = 136 (want 136), virtual time 229.896us
}
