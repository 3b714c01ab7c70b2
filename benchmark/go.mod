module ethkv/benchmark

go 1.23

require ethkv v0.0.0

replace ethkv => ../
