module graf/benchmark

go 1.22

require graf v0.0.0

replace graf => ../
