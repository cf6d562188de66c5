module rtc/bench

go 1.22

require rtc v0.0.0

replace rtc => ../
