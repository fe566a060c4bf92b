package main

// Example holds the program's output to a golden: every number in it is
// virtual, so it prints the same bytes on every run.
func Example() {
	main()
	// Output:
	// rank 0:  4145 keys, range [35, 130999]
	// rank 1:  4104 keys, range [131108, 262079]
	// rank 7:  3996 keys, range [917524, 1048553]
	// rank 5:  4194 keys, range [655412, 786420]
	// rank 2:  3967 keys, range [262211, 393204]
	// rank 4:  4140 keys, range [524317, 655292]
	// rank 6:  4122 keys, range [786454, 917430]
	// rank 3:  4100 keys, range [393231, 524231]
	// globally sorted: true, virtual time 514.434us, max posted buffers 3
}
