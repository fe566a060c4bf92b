module ibflow/benchmark

go 1.22

require ibflow v0.0.0

replace ibflow => ../
