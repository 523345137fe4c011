//! Empty stand-in: the root `.cargo/config.toml` patches `criterion`, so the
//! patch must resolve, but nothing the benchmark builds imports it.
