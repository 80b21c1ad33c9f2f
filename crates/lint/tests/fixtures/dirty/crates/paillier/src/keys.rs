#[derive(Clone, Debug)]
pub struct PrivateKey {
    lambda: u64,
}

#[derive(Clone, serde::Serialize)]
pub struct TagKey {
    coeffs: Vec<i64>,
}

impl serde::Serialize for PrivateKey {}
