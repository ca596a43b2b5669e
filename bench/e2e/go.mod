module dcpim/bench/e2e

go 1.22

require dcpim v0.0.0

replace dcpim => ../..
