module netalytics/bench

go 1.22

require netalytics v0.0.0

replace netalytics => ../
