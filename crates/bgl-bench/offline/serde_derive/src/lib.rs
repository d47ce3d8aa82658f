//! No-op derives. Nothing the benchmark links serializes through serde
//! (`serde_json` is only used by `bgl-core` and `bench`, which the
//! benchmark does not depend on), so the derives only have to accept the
//! `#[serde(..)]` helper attribute and emit nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
