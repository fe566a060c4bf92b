module ibflow

go 1.23
