//! Empty stand-in: the root `.cargo/config.toml` patches `crossbeam`, so the
//! patch must resolve, but nothing the benchmark builds imports it.
